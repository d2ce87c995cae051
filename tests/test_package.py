"""Source-level checks over the package."""

import ast
from pathlib import Path

import hallkernel


def test_every_exported_name_resolves():
    # A stale ``__all__`` entry breaks only ``from hallkernel import *``.
    assert [name for name in hallkernel.__all__ if not hasattr(hallkernel, name)] == []


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts; invariants must raise to keep holding there.
    root = Path(hallkernel.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
