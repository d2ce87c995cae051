"""The three workloads: seeded inputs, the timed operation, and its checks.

Every workload turns a seed into a fixed list of inputs (one *pass*).  The
timed operation goes through the package's public functions, always looked
up on the module at call time so the tracer's wrappers take effect.  An
output is reduced to a plain *digest* outside the timed region; digests are
checked against :mod:`reference`, never against the package's own code
(apart from ``oracle_kernel`` for mappings small enough to enumerate).
"""

from __future__ import annotations

import json
import subprocess
import time
from collections import Counter
from itertools import combinations, product

import reference

INKALA = ("8..........36......7..9.2...5...7.......457....."
          "1...3...1....68..85...1..9....4..")
EMPTY = "." * 81

#: Blank counts of the seeded blankings, each used BLANKINGS_PER_COUNT times.
BLANK_COUNTS = range(50, 65)
BLANKINGS_PER_COUNT = 7

#: scan-large: the path family at PATH_SIZES; the triangular family at every
#: size 14..20, TRIANGULAR_REPEATS relabellings each; and RANDOM_SLOTS random
#: mappings per size in RANDOM_SIZES, of which RANDOM_VIOLATIONS violate
#: Hall's condition and the rest are one critical block.  Drawing to a fixed
#: outcome per slot keeps the mix, and so the pass time, the same for every
#: seed; the random family stays small so its seed-dependent cost is a small
#: share of a pass.
PATH_SIZES = range(14, 20)
TRIANGULAR_SIZES = range(14, 21)
TRIANGULAR_REPEATS = 4
RANDOM_SIZES = (14, 15)
RANDOM_SLOTS = 8
RANDOM_VIOLATIONS = 3
DENSITY = (0.15, 0.5)

#: small-mappings: every 3x3 mapping plus this many seeded random mappings
#: of up to SMALL_MAX x SMALL_MAX.
SMALL_RANDOM = 1024
SMALL_MAX = 8

#: Mapping documents sent through the CLI one process each.
CLI_SAMPLE = {"scan-large": 3, "small-mappings": 8}


def canonical_grid() -> str:
    """A solved grid built by shifting rows (3, then 1 within a band)."""
    return "".join(str(((3 * (r % 3) + r // 3 + c) % 9) + 1)
                   for r in range(9) for c in range(9))


class MappingCase:
    """One mapping: its family, labels, images and document text."""

    __slots__ = ("family", "xs", "ys", "images", "doc", "mapping", "facts")

    def __init__(self, family, xs, ys, images, finite_mapping=None):
        self.family = family
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        self.images = {x: frozenset(images[x]) for x in self.xs}
        self.doc = document(self.xs, self.ys, self.images)
        self.mapping = (finite_mapping(self.xs, self.ys, self.images)
                        if finite_mapping is not None else None)
        self.facts = None

    @property
    def n(self) -> int:
        return len(self.xs)


def document(xs, ys, images) -> str:
    """The mapping-document text: X and Y headers, one image line per x."""
    lines = ["X: " + " ".join(map(str, xs)), "Y: " + " ".join(map(str, ys))]
    for x in xs:
        lines.append(f"{x} : " + " ".join(str(y) for y in ys if y in images[x]))
    return "\n".join(line.rstrip() for line in lines) + "\n"


# -- digests ------------------------------------------------------------------


def _violation(result):
    witness = getattr(result, "witness", None)
    return None if witness is None else frozenset(witness)


def _kernel_digest(kern):
    witness = kern.witness.witness if kern.witness is not None else None
    return tuple(kern.images), witness


def _selection_digest(sel):
    witness = _violation(sel)
    if witness is not None:
        return ("violation", witness)
    return ("selection", tuple(sel.x_labels), tuple(sel.values))


def _partition_digest(part):
    witness = _violation(part)
    if witness is not None:
        return ("violation", witness)
    return ("partition", tuple(part.blocks), part.exit_kind.value)


# -- reference facts ------------------------------------------------------------


def mapping_facts(case: MappingCase, hk) -> dict:
    """Hall status, kernel, exit kind and uniqueness of one input.

    Kernels of mappings small enough to enumerate come from the package's
    brute-force oracle, the others from the benchmark's own matching.
    """
    if case.facts is None:
        case.facts = _facts(case, hk)
    return case.facts


def _facts(case: MappingCase, hk) -> dict:
    hall = reference.hall_holds(case.images)
    if case.n <= hk.oracle.SELECTION_CAP:
        fm = hk.mappings.FiniteMapping(case.xs, case.ys, case.images)
        kernel = dict(zip(case.xs, hk.oracle.oracle_kernel(fm).images))
    else:
        kernel = reference.matching_kernel(case.images)
    return {
        "hall": hall,
        "kernel": tuple(kernel[x] for x in case.xs),
        "critical": reference.image_size(case.images, case.xs) == case.n,
        "unique": hall and all(len(kernel[x]) == 1 for x in case.xs),
    }


def _kernel_ok(case, facts, digest) -> bool:
    images, witness = digest
    if images != facts["kernel"]:
        return False
    return witness is None if facts["hall"] else reference.witness_ok(case.images, witness)


def _selection_ok(case, facts, digest) -> bool:
    if digest[0] == "selection":
        return facts["hall"] and reference.selection_ok(case.images, digest[1], digest[2])
    return not facts["hall"] and reference.witness_ok(case.images, digest[1])


def _cli_kernel_ok(case, facts, payload) -> bool:
    expected = {str(x): sorted(str(y) for y in img)
                for x, img in zip(case.xs, facts["kernel"])}
    got = {x: sorted(ys) for x, ys in payload.get("kernel", {}).items()}
    if got != expected or payload.get("empty") is facts["hall"]:
        return False
    if facts["hall"]:
        return payload.get("witness") is None
    by_name = {str(x): x for x in case.xs}
    witness = [by_name.get(x) for x in payload.get("witness") or ()]
    return reference.witness_ok(case.images, witness)


# -- workloads ------------------------------------------------------------------


class SudokuSolve:
    """``parse_grid`` + ``solve`` per grid; the batch CLI over the same grids."""

    name = "sudoku-solve"
    cli_repeats = 3

    def generate(self, rng, hk) -> list:
        solved = canonical_grid()
        grids = [INKALA, EMPTY]
        for blanks in BLANK_COUNTS:
            for _ in range(BLANKINGS_PER_COUNT):
                holes = set(rng.sample(range(81), blanks))
                grids.append("".join("." if i in holes else ch
                                     for i, ch in enumerate(solved)))
        rng.shuffle(grids)
        return grids

    def op(self, hk, item):
        return hk.sudoku.solve(hk.sudoku.parse_grid(item))

    def digest(self, out):
        if out is None or out.candidates:
            return None
        return "".join(str(out.givens.get((r, c), "."))
                       for r in range(1, 10) for c in range(1, 10))

    def verify(self, hk, item, digest) -> bool:
        return reference.valid_solution(item, digest)

    def properties(self, hk, items) -> dict:
        kinds = Counter("inkala" if g == INKALA else "empty" if g == EMPTY else "blanked"
                        for g in items)
        blanks = Counter(g.count(".") for g in items)
        return {"family_mix": dict(sorted(kinds.items())),
                "blank_histogram": {str(k): v for k, v in sorted(blanks.items())}}

    def cli_batch(self, items, runner):
        """One ``sudoku solve`` process over the whole pass, in order."""
        path = runner.write("grids.txt", "".join(g + "\n" for g in items))
        seconds, code, stdout = runner.cli("sudoku", "solve", "--format", "json",
                                           "--input", path)
        return seconds, (code, stdout)

    def cli_check(self, hk, items, outputs):
        code, stdout = outputs
        try:
            payloads = json.loads(stdout) if code == 0 else []
        except json.JSONDecodeError:
            payloads = []
        if isinstance(payloads, dict):
            payloads = [payloads]
        failed = 0
        for i, grid in enumerate(items):
            got = payloads[i].get("grid") if i < len(payloads) else None
            failed += not reference.valid_solution(grid, got)
        return len(items), failed


class MappingWorkload:
    cli_repeats = 5

    def properties(self, hk, items) -> dict:
        facts = [mapping_facts(c, hk) for c in items]
        return {
            "family_mix": dict(sorted(Counter(c.family for c in items).items())),
            "n_histogram": {str(k): v for k, v in sorted(Counter(c.n for c in items).items())},
            "violation_share": sum(not f["hall"] for f in facts) / len(items),
        }

    def cli_batch(self, items, runner):
        """One ``kernel`` process per sampled document, one at a time."""
        seconds, outputs = 0.0, []
        for i, case in enumerate(self.cli_sample(items)):
            path = runner.write(f"mapping{i}.txt", case.doc)
            took, code, stdout = runner.cli("kernel", "--format", "json", "--input", path)
            seconds += took
            outputs.append((case, code, stdout))
        return seconds, outputs

    def cli_check(self, hk, items, outputs):
        failed = 0
        for case, code, stdout in outputs:
            facts = mapping_facts(case, hk)
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError:
                payload = {}
            failed += not (code == (0 if facts["hall"] else 1)
                           and _cli_kernel_ok(case, facts, payload))
        return len(outputs), failed


class ScanLarge(MappingWorkload):
    """Partition + kernel + selection on mappings with 14..20 elements."""

    name = "scan-large"

    def generate(self, rng, hk) -> list:
        fm = hk.mappings.FiniteMapping
        cases = []
        for n in PATH_SIZES:
            cases.append(MappingCase("path", range(1, n + 1), range(1, n + 2),
                                     {i: (i, i + 1) for i in range(1, n + 1)}, fm))
        for n in TRIANGULAR_SIZES:
            for _ in range(TRIANGULAR_REPEATS):
                xs = rng.sample(range(1, n + 1), n)
                names = rng.sample(range(1, n + 1), n)
                cases.append(MappingCase(
                    "triangular", xs, range(1, n + 1),
                    {x: names[:x] for x in xs}, fm))
        for n in RANDOM_SIZES:
            for slot in range(RANDOM_SLOTS):
                accept = (reference.single_block if slot >= RANDOM_VIOLATIONS
                          else lambda images: not reference.hall_holds(images))
                while True:
                    density = rng.uniform(*DENSITY)
                    images = {x: {y for y in range(1, n + 1) if rng.random() < density}
                              for x in range(1, n + 1)}
                    if accept(images):
                        break
                cases.append(MappingCase("random", range(1, n + 1), range(1, n + 1),
                                         images, fm))
        rng.shuffle(cases)
        return cases

    def op(self, hk, item):
        m = item.mapping
        return (hk.partition.compute_hall_partition(m),
                hk.kernel.alldifferent_kernel(m),
                hk.kernel.extract_selection(m))

    def digest(self, out):
        part, kern, sel = out
        return _partition_digest(part), _kernel_digest(kern), _selection_digest(sel)

    def verify(self, hk, item, digest) -> bool:
        facts = mapping_facts(item, hk)
        part, kern, sel = digest
        if facts["hall"]:
            kind = "LastBlockCritical" if facts["critical"] else "LastBlockNonCritical"
            part_ok = (part[0] == "partition" and reference.blocks_ok(item.images, part[1])
                       and part[2] == kind)
        else:
            part_ok = part[0] == "violation" and reference.witness_ok(item.images, part[1])
        return part_ok and _kernel_ok(item, facts, kern) and _selection_ok(item, facts, sel)

    def cli_sample(self, items) -> list:
        # The largest input of each family up to n = 18, so one process
        # stays well under a second.
        best = {}
        for case in items:
            if case.n <= 18 and case.n > best.get(case.family, (0, None))[0]:
                best[case.family] = (case.n, case)
        return [best[f][1] for f in sorted(best)][:CLI_SAMPLE[self.name]]


class SmallMappings(MappingWorkload):
    """Document parse + check + kernel + selection + uniqueness per mapping."""

    name = "small-mappings"

    def generate(self, rng, hk) -> list:
        labels = ("1", "2", "3")
        subsets = [s for size in range(4) for s in combinations(labels, size)]
        cases = [MappingCase("all-3x3", labels, labels, dict(zip(labels, imgs)))
                 for imgs in product(subsets, repeat=3)]
        for _ in range(SMALL_RANDOM):
            nx, ny = rng.randint(1, SMALL_MAX), rng.randint(1, SMALL_MAX)
            density = rng.random()
            xs = [str(x) for x in range(1, nx + 1)]
            ys = [str(y) for y in range(1, ny + 1)]
            images = {x: {y for y in ys if rng.random() < density} for x in xs}
            cases.append(MappingCase("random", xs, ys, images))
        rng.shuffle(cases)
        return cases

    def op(self, hk, item):
        m = hk.cli.parse_mapping_document(item.doc)
        return (m, hk.partition.check_hall(m), hk.kernel.alldifferent_kernel(m),
                hk.kernel.extract_selection(m), hk.kernel.has_unique_selection(m))

    def digest(self, out):
        m, hall, kern, sel, unique = out
        ys = m.y_labels
        parsed = (m.x_labels, ys,
                  tuple(frozenset(ys[j] for j in range(len(ys)) if bits >> j & 1)
                        for bits in m.image_bits))
        return (parsed, None if hall is None else frozenset(hall.witness),
                _kernel_digest(kern), _selection_digest(sel), unique)

    def verify(self, hk, item, digest) -> bool:
        facts = mapping_facts(item, hk)
        parsed, hall, kern, sel, unique = digest
        if parsed != (item.xs, item.ys, tuple(item.images[x] for x in item.xs)):
            return False
        hall_ok = hall is None if facts["hall"] else reference.witness_ok(item.images, hall)
        return (hall_ok and _kernel_ok(item, facts, kern)
                and _selection_ok(item, facts, sel) and unique is facts["unique"])

    def cli_sample(self, items) -> list:
        count = CLI_SAMPLE[self.name]
        step = len(items) // count
        return [items[i * step] for i in range(count)]


WORKLOADS = {w.name: w for w in (SudokuSolve(), ScanLarge(), SmallMappings())}


class CliRunner:
    """Runs ``python -m hallkernel`` one process at a time in a work directory."""

    def __init__(self, python: str, workdir, env: dict, timeout: float):
        self.python = python
        self.workdir = workdir
        self.env = env
        self.timeout = timeout

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cli(self, *args) -> tuple[float, int, str]:
        return self.run("-m", "hallkernel", *args)

    def run(self, *args) -> tuple[float, int, str]:
        start = time.perf_counter()
        proc = subprocess.run([self.python, *args], capture_output=True, text=True,
                              env=self.env, cwd=self.workdir, timeout=self.timeout)
        return time.perf_counter() - start, proc.returncode, proc.stdout
