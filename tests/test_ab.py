"""``tests/ab.py``, the paired in-process A/B, on a small A/A."""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parent / "ab.py"
SRC = AB.parent.parent / "src"


@pytest.fixture
def ab(monkeypatch):
    # ab.py puts perfbench/ on sys.path; the trees it loads leave sys.modules.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m.startswith("hallkernel_ab_test")]:
        del sys.modules[name]


def test_a_a_runs_and_a_digest_mismatch_is_an_error(ab, monkeypatch):
    sides = {side: ab.load_tree(SRC, f"hallkernel_ab_test_{side}") for side in ("base", "this")}
    assert sides["base"].partition is not sides["this"].partition
    workload = ab.WORKLOADS["scan-large"]
    out = io.StringIO()
    assert ab.paired(workload, sides, 2, 1, out) == 0
    text = out.getvalue()
    assert "alternating which goes first, GC off" in text
    assert text.splitlines()[-1].startswith("this/base median ratio: ")
    # A selection that is never right: a witness of no element.
    this = sides["this"]
    monkeypatch.setattr(this.kernel, "extract_selection",
                        lambda m: this.partition.HallViolation(frozenset()))
    out = io.StringIO()
    assert ab.paired(workload, sides, 2, 1, out) == 1
    assert out.getvalue().startswith("ab: digest mismatch at input 0: ")
