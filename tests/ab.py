"""Time one perfbench workload on two source trees in one process, paired.

Run from anywhere as::

    python tests/ab.py WORKLOAD [--base REV] [--rounds N] [--seed S]

``WORKLOAD`` is one of ``perfbench/workloads.py``'s workloads.  The base side
is ``REV``'s ``src/``, extracted with ``git archive REV src | tar -x`` into a
temporary directory (local git only); the other side is this checkout's
``src/``, uncommitted edits included.  Without ``--base`` both sides load this
checkout's ``src/``: an A/A run, which shows the spread that an A/B ratio has
to beat.  Each tree is loaded under a package name of its own, so both sit
side by side in ``sys.modules``.

Each side generates its inputs from the seed through the workload's own
``generate``, and every input's digest (``op`` then ``digest``) is compared
across the sides before any timing: a mismatch names the first input that
differs and exits 1.  Then each round times one pass over the inputs on each
side, the sides alternating which goes first, with the garbage collector off.
The table gives each side's min, median and interquartile range of the pass
times, the ratio of the medians and how many rounds each side was faster.

Pytest collects no file without the ``test_`` prefix; ``test_ab.py``
runs a small A/A through :func:`paired`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

#: The modules a workload reaches through its ``hk`` namespace.
MODULES = ("mappings", "partition", "kernel", "oracle", "sudoku", "cli")


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """Import ``src/hallkernel`` as the package ``name``, with its modules."""
    package = src / "hallkernel"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def extract(rev: str, dest: Path) -> Path:
    """``rev``'s ``src/`` written under ``dest``; returns that ``src``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                               stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or tar.returncode:
        raise SystemExit(f"ab: cannot extract {rev}'s src/")
    return dest / "src"


def one_pass(workload, hk, items) -> float:
    start = time.perf_counter()
    for item in items:
        workload.op(hk, item)
    return time.perf_counter() - start


def paired(workload, sides: dict, rounds: int, seed: int, out=None) -> int:
    """Check digests, then time ``rounds`` alternating rounds; the exit code.

    ``sides`` maps a side's name to its ``hk`` namespace; the ratio is the
    second side's median over the first's.  ``out`` is where the report
    goes, standard output by default.
    """
    inputs = {name: workload.generate(random.Random(seed), hk) for name, hk in sides.items()}
    (first, hk_a), (second, hk_b) = sides.items()
    if len(inputs[first]) != len(inputs[second]):
        print(f"ab: {len(inputs[first])} inputs against {len(inputs[second])}", file=out)
        return 1
    for i, (a, b) in enumerate(zip(inputs[first], inputs[second])):
        if workload.digest(workload.op(hk_a, a)) != workload.digest(workload.op(hk_b, b)):
            print(f"ab: digest mismatch at input {i}: {getattr(a, 'doc', a)!r}", file=out)
            return 1
    times = {name: [] for name in sides}
    order = list(sides)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for name in order:
                times[name].append(one_pass(workload, sides[name], inputs[name]))
            order.reverse()
    finally:
        if enabled:
            gc.enable()
    wins = {first: 0, second: 0}
    for a, b in zip(times[first], times[second]):
        wins[first if a < b else second] += 1
    print(f"{workload.name}: seed {seed}, {len(inputs[first])} inputs, {rounds} rounds of "
          "one pass a side, the sides alternating which goes first, GC off", file=out)
    print(f"{'side':<10} {'min ms':>9} {'median ms':>10} {'IQR ms':>8} {'wins':>5}", file=out)
    for name in sides:
        ts = [t * 1e3 for t in times[name]]
        q1, _, q3 = statistics.quantiles(ts, n=4)
        print(f"{name:<10} {min(ts):9.2f} {statistics.median(ts):10.2f} {q3 - q1:8.2f} "
              f"{wins[name]:5d}", file=out)
    ratio = statistics.median(times[second]) / statistics.median(times[first])
    print(f"{second}/{first} median ratio: {ratio:.3f}", file=out)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--base", help="the git revision to compare with; none for an A/A")
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = ROOT / "src" if args.base is None else extract(args.base, Path(tmp))
        sides = {"base": load_tree(base, "hallkernel_ab_base"),
                 "this": load_tree(ROOT / "src", "hallkernel_ab_this")}
        if args.base is None:
            print("A/A: both sides are this checkout's src/")
        else:
            print(f"A/B: base is {args.base}'s src/, this is this checkout's src/")
        return paired(WORKLOADS[args.workload], sides, args.rounds, args.seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
