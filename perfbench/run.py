"""hallkernel benchmark: one workload per run, timed end to end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sudoku-solve --seed 1 --seconds 20 --trace 0

A run generates its inputs from the seed, repeats whole passes over them in
one closed loop (one caller, no threads) for about ``--seconds`` seconds of
operation time, checks every output outside the timed region, then times the
``python -m hallkernel`` CLI over the same inputs, one process at a time.
With ``--trace 1`` half the time runs untraced and half with the public
functions wrapped by :mod:`tracer`; per-layer numbers are given per pass.

The last line of standard output is the result object; the lines before it
print every metric by name with its unit, and a ``report`` line holds the
environment, the input properties and the extra figures (failure ratio,
which percentile the tail is, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CliRunner  # noqa: E402

MODULES = ("mappings", "partition", "kernel", "oracle", "sudoku", "cli")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
CLI_TIMEOUT = 30.0
#: Candidate tail percentiles; the reported one is the highest with at least
#: ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Per-layer metric -> (end-to-end metric, workload) it is predicted to move.
#: Every wrapped function also reports ``.calls`` and ``.self_s``.
PREDICTIONS = {
    "cli.parse_mapping_document": ("ops_per_s", "small-mappings"),
    "cli.import_s": ("cli_batch_s", "all"),
    "sudoku.parse_grid": ("op_ms.p50", "sudoku-solve"),
    "sudoku.compute_markups": ("op_ms.p50", "sudoku-solve"),
    "sudoku.unit_mapping": ("ops_per_s", "sudoku-solve"),
    "sudoku.propagate": ("ops_per_s", "sudoku-solve"),
    "sudoku.solve": ("op_ms.tail", "sudoku-solve"),
    "sudoku.solve.backtracks": ("op_ms.tail", "sudoku-solve"),
    "sudoku.kernel_useful_ratio": ("ops_per_s", "sudoku-solve"),
    "sudoku.candidates_removed": ("ops_per_s", "sudoku-solve"),
    "kernel.alldifferent_kernel": ("ops_per_s", "sudoku-solve, small-mappings"),
    "kernel.extract_selection": ("ops_per_s", "small-mappings, scan-large"),
    "mappings.complement": ("ops_per_s", "small-mappings, scan-large"),
    "mappings.FiniteMapping.from_dict": ("ops_per_s", "sudoku-solve"),
    "partition.compute_hall_partition": ("ops_per_s", "scan-large, then sudoku-solve"),
    "partition.domain_size.mean": ("ops_per_s", "scan-large"),
    "partition.domain_size.max": ("ops_per_s", "scan-large"),
    "partition.blocks": ("ops_per_s", "scan-large"),
    "partition.violation_ratio": ("ops_per_s", "scan-large"),
    "tracing.overhead_ratio": ("none: the cost of the traced run itself", "all"),
}

#: Span name -> the (module, attribute) places its callers look it up.
TRACED = {
    "cli.parse_mapping_document": (("cli", "parse_mapping_document"),),
    "sudoku.parse_grid": (("sudoku", "parse_grid"),),
    "sudoku.compute_markups": (("sudoku", "compute_markups"),),
    "sudoku.unit_mapping": (("sudoku", "unit_mapping"),),
    "sudoku.propagate": (("sudoku", "propagate"),),
    "sudoku.solve": (("sudoku", "solve"),),
    "kernel.alldifferent_kernel": (("kernel", "alldifferent_kernel"),
                                   ("sudoku", "alldifferent_kernel")),
    "kernel.extract_selection": (("kernel", "extract_selection"),),
    "mappings.complement": (("mappings", "complement"), ("kernel", "complement")),
    "mappings.FiniteMapping.from_dict": ((("mappings", "FiniteMapping"), "from_dict"),),
    "partition.compute_hall_partition": (("partition", "compute_hall_partition"),
                                         ("kernel", "compute_hall_partition")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh():
    """Import the package from ``src`` anew, executing every module again."""
    for name in [m for m in sys.modules if m == "hallkernel" or m.startswith("hallkernel.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"hallkernel.{m}") for m in MODULES})


class Loop:
    """Whole passes over the inputs in one closed loop, and their outcomes.

    ``latencies[i]`` holds every latency of input ``i``, ``first[i]`` its
    first digest and ``runs[i]`` how many of its ops returned that digest.
    ``failed`` counts the ops that raised or returned something else.
    """

    def __init__(self, hk, workload, items, tracer=None):
        self.hk, self.workload, self.items, self.tracer = hk, workload, items, tracer
        self.latencies: list[list[float]] = [[] for _ in items]
        self.pass_times: list[float] = []
        self.first: dict[int, object] = {}
        self.runs = [0] * len(items)
        self.failed = 0

    def run(self, budget: float) -> None:
        """Passes until about ``budget`` seconds of op time, at least one."""
        gc.collect()
        spent, passes = 0.0, 0
        while spent + (spent / passes / 2 if passes else 0.0) < budget:
            busy = self._pass()
            self.pass_times.append(busy)
            spent += busy
            passes += 1

    def _pass(self) -> float:
        hk, workload, tracer, clock = self.hk, self.workload, self.tracer, time.perf_counter
        busy = 0.0
        for i, item in enumerate(self.items):
            error = None
            start = clock()
            try:
                out = workload.op(hk, item)
            except Exception as exc:  # an op that raises is counted, not fatal
                error = exc
            took = clock() - start
            busy += took
            self.latencies[i].append(took)
            if tracer is not None:
                tracer.fold()
            if error is not None:
                self.failed += 1
                traceback.print_exception(error, file=sys.stderr)
                continue
            digest = workload.digest(out)
            if self.first.setdefault(i, digest) == digest:
                self.runs[i] += 1
            else:
                self.failed += 1
        return busy

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def verify(self) -> int:
        """Ops whose (shared, deterministic) output fails the reference check."""
        return sum(self.runs[i] for i, digest in self.first.items()
                   if not self.workload.verify(self.hk, self.items[i], digest))


def tail(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (1 - q / 100) >= 10:
            return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]
    return 50.0, statistics.median(ordered)


def install_tracer(hk, tracer) -> None:
    counters = tracer.counters

    def partition_after(args, result):
        counters["partition.domain_size.sum"] += len(args[0].x_labels)
        counters["partition.domain_size.max"] = max(counters["partition.domain_size.max"],
                                                    len(args[0].x_labels))
        if hasattr(result, "blocks"):
            counters["partition.blocks"] += len(result.blocks)
        else:
            counters["partition.violations"] += 1

    def solve_after(args, result):
        if result is None:
            counters["sudoku.solve.backtracks"] += 1

    def kernel_after(args, result):
        # Only propagate calls the kernel from sudoku.
        counters["sudoku.kernel_calls"] += 1
        if result.is_empty:
            return
        removed = (sum(b.bit_count() for b in args[0].image_bits)
                   - sum(len(img) for img in result.images))
        counters["sudoku.candidates_removed"] += removed
        counters["sudoku.kernel_useful"] += removed > 0

    hooks = {("sudoku", "solve"): solve_after, ("sudoku", "alldifferent_kernel"): kernel_after,
             ("partition", "compute_hall_partition"): partition_after,
             ("kernel", "compute_hall_partition"): partition_after}
    for name, places in TRACED.items():
        for owner, attr in places:
            target = (getattr(getattr(hk, owner[0]), owner[1]) if isinstance(owner, tuple)
                      else getattr(hk, owner))
            tracer.patch(target, attr, name, hooks.get((owner, attr)))


def layer_metrics(tracer, passes: int, overhead: float, import_s: float) -> dict:
    """Per-layer figures for one pass; every pass does the same work."""

    def per_pass(total):
        value = total / passes
        return int(value) if float(value).is_integer() else value

    def share(part, whole):
        return part / whole if whole else 0.0

    c = tracer.counters
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (per_pass(tracer.calls[name]), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    scans = tracer.calls["partition.compute_hall_partition"]
    metrics.update({
        "sudoku.solve.backtracks": (per_pass(c["sudoku.solve.backtracks"]), "count"),
        "sudoku.kernel_useful_ratio": (share(c["sudoku.kernel_useful"],
                                             c["sudoku.kernel_calls"]), "ratio"),
        "sudoku.candidates_removed": (per_pass(c["sudoku.candidates_removed"]), "count"),
        "partition.domain_size.mean": (share(c["partition.domain_size.sum"], scans), "count"),
        "partition.domain_size.max": (int(c["partition.domain_size.max"]), "count"),
        "partition.blocks": (per_pass(c["partition.blocks"]), "count"),
        "partition.violation_ratio": (share(c["partition.violations"], scans), "ratio"),
        "cli.import_s": (import_s, "s"),
        "tracing.overhead_ratio": (overhead, "ratio"),
    })
    return metrics


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "seed": seed, "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hallkernel" / "__init__.py").is_file():
        print(f"perfbench: no hallkernel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hk = import_fresh()
        items = workload.generate(random.Random(args.seed), hk)
        setup_times.append(time.perf_counter() - start)
    if Path(hk.cli.__file__).resolve().parent != SRC / "hallkernel":
        print("perfbench: hallkernel was not imported from src/", file=sys.stderr)
        return 2

    # The CLI batches run between slices of the timed loop, so that both
    # sample the machine over the whole run.
    plain = Loop(hk, workload, items)
    budget = args.seconds / 2 if args.trace else args.seconds
    batches = []
    tracer = traced = import_s = None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = CliRunner(sys.executable, Path(workdir), env, CLI_TIMEOUT)
        for _ in range(workload.cli_repeats):
            plain.run(budget / workload.cli_repeats)
            batches.append(workload.cli_batch(items, runner))
        if args.trace:
            tracer = Tracer()
            traced = Loop(hk, workload, items, tracer)
            install_tracer(hk, tracer)
            try:
                traced.run(args.seconds / 2)
            finally:
                tracer.restore()
            import_s = statistics.median(runner.run("-c", "import hallkernel.cli")[0]
                                         for _ in range(IMPORT_REPEATS))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    loops = [plain] if traced is None else [plain, traced]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed + loop.verify() for loop in loops)
    for _, outputs in batches:
        cli_attempted, cli_failed = workload.cli_check(hk, items, outputs)
        attempted += cli_attempted
        failed += cli_failed

    # One sample per input: its median latency over the passes, which damps
    # bursts of machine noise (see README.md).
    pass_times = plain.pass_times
    latencies = [statistics.median(ts) for ts in plain.latencies]
    tail_q, tail_s = tail(latencies)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms.tail": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_batch_s": (statistics.median(b[0] for b in batches), "s"),
    }
    extra = {"failed_ratio": failed / attempted, "tail_percentile": tail_q,
             "samples": len(latencies), "passes": len(pass_times),
             "pass_ops": len(items), "setup_s_all": setup_times}
    if tracer is not None:
        overhead = statistics.median(traced.pass_times) / statistics.median(pass_times)
        chosen = layer_metrics(tracer, len(traced.pass_times), overhead, import_s)
        extra["predictions"] = {k: {"moves": v[0], "on": v[1]} for k, v in PREDICTIONS.items()}
    else:
        chosen = end_to_end

    report = {"workload": workload.name, "environment": environment(args.seed),
              "properties": workload.properties(hk, items), "extra": extra,
              "end_to_end": {k: v[0] for k, v in end_to_end.items()}}
    if tracer is not None:
        report["per_layer"] = {k: v[0] for k, v in chosen.items()}
    for name, (value, unit) in {**end_to_end, **chosen}.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_ratio = {failed / attempted!r} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
