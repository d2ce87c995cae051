"""The benchmark's trace points resolve on the package and are put back.

``perfbench/run.py`` wraps the public functions at the module attributes
listed in its ``TRACED`` table, some of which exist only for it (the
``compute_hall_partition`` name in ``kernel`` and the ``alldifferent_kernel``
name in ``sudoku``).  Losing one of them breaks ``--trace 1`` and nothing
else, so this test installs the tracer on the already-imported package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hallkernel import FiniteMapping

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    # run.py puts perfbench/ on sys.path for its own imports.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute(hk, owner, attr):
    """What ``owner.attr`` holds; a class's own entry, so classmethods compare."""
    target = (getattr(getattr(hk, owner[0]), owner[1]) if isinstance(owner, tuple)
              else getattr(hk, owner))
    return target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)


def test_trace_points_resolve_and_are_restored(run):
    # The modules the other tests use, not fresh copies of them.
    hk = SimpleNamespace(**{m: importlib.import_module(f"hallkernel.{m}")
                            for m in run.MODULES})
    places = [place for owners in run.TRACED.values() for place in owners]
    originals = [attribute(hk, *place) for place in places]
    tracer = run.Tracer()
    try:
        run.install_tracer(hk, tracer)
        assert all(attribute(hk, *place) is not original
                   for place, original in zip(places, originals))
        hk.partition.compute_hall_partition(FiniteMapping.from_dict({1: {1, 2}, 2: {2}}))
    finally:
        tracer.restore()
    assert all(attribute(hk, *place) is original
               for place, original in zip(places, originals))
    tracer.fold()
    assert tracer.calls["partition.compute_hall_partition"] == 1
    assert tracer.counters["partition.blocks"] == 2
