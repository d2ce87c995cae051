"""Source-level checks over the package."""

import ast
from pathlib import Path

import hallkernel
from linecov import ALLOWED, PACKAGE


def test_every_exported_name_resolves():
    # A stale ``__all__`` entry breaks only ``from hallkernel import *``.
    assert [name for name in hallkernel.__all__ if not hasattr(hallkernel, name)] == []


#: The paper's definitions and the exhaustive checks built on them, which
#: live in the oracle alone.
DEFINITIONS = ("image_of_set", "residual", "is_critical", "is_non_reducible",
               "verify_partition", "partitions_equal_up_to_renumbering",
               "kernel_from_partition", "InvalidPartitionError")


def test_oracle_names_resolve_from_the_oracle_alone():
    # The package loads the oracle on first use of one of its exported names.
    from hallkernel import oracle
    assert hallkernel.enumerate_selections is oracle.enumerate_selections
    assert [name for name in DEFINITIONS
            if getattr(hallkernel, name) is not getattr(oracle, name)] == []
    assert not hasattr(hallkernel, "oracle_hall_scan")


def package_nodes():
    """Every AST node of the package source, with the name of its file."""
    root = Path(hallkernel.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts; invariants must raise to keep holding there.
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_tuple_built_from_a_generator_expression():
    # A generator expression, or a ``map``, ``zip``, ``filter`` or
    # ``bit_indices`` iterator, has no length hint, so ``tuple()`` over it
    # allocates ten slots and resizes, which fills CPython's per-size tuple
    # free lists as calls pile up; ``tuple([...])`` allocates the final size
    # once.
    lazy = {"map", "zip", "filter", "bit_indices"}
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tuple" and node.args
             and (isinstance(node.args[0], ast.GeneratorExp)
                  or isinstance(node.args[0], ast.Call)
                  and isinstance(node.args[0].func, ast.Name)
                  and node.args[0].func.id in lazy)]
    assert found == []


def package_imports(filename):
    """``(module, name)`` per package name the file imports, a whole module as "*"."""
    tree = ast.parse((Path(hallkernel.__file__).parent / filename).read_text(
        encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name.removeprefix("hallkernel."), "*")
                         for alias in node.names if alias.name.startswith("hallkernel.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hallkernel")):
            module = (node.module or "").removeprefix("hallkernel").lstrip(".")
            imported += [(module, alias.name) if module else (alias.name, "*")
                         for alias in node.names]
    return imported


def test_oracle_shares_nothing_with_the_scan():
    # The oracle is the independent reference: from ``partition`` it takes the
    # two result records only, and it uses no package module's private helpers.
    imported = package_imports("oracle.py")
    assert imported, "oracle.py imports nothing from the package"
    assert {name for module, name in imported if module == "partition"} <= {
        "HallViolation", "HallPartition"}
    assert [name for _, name in imported if name.startswith("_")] == []


def test_only_the_oracle_enumerates_by_definition():
    # Exhaustive enumeration by definition is the oracle's alone: no other
    # module imports from itertools or defines one of the definitions.
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if name != "oracle.py" and (
                 isinstance(node, ast.ImportFrom) and node.module == "itertools"
                 or isinstance(node, ast.Import)
                 and any(a.name == "itertools" for a in node.names)
                 or isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name in DEFINITIONS)]
    assert found == []


def test_cli_runs_no_oracle_code():
    # Selections come from the kernel's matchings, and the oracle stays the
    # reference the tests hold them to; ``enumerate``'s cap is in mappings.
    assert [(module, name) for module, name in package_imports("cli.py")
            if module == "oracle"] == []
    kernel = ast.parse((Path(hallkernel.__file__).parent / "kernel.py").read_text(
        encoding="utf-8"))
    assert "_least_matching" not in {node.name for node in ast.walk(kernel)
                                     if isinstance(node, ast.FunctionDef)}


def test_size_caps_are_raised_by_one_helper():
    # The cap policy and its message live in mappings.check_size_cap; every
    # other cap check calls it.
    def constructed(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "SizeCapError"]

    nodes = list(package_nodes())
    assert [(name, node.name) for name, node in nodes
            if isinstance(node, ast.FunctionDef) and constructed(node)] == [
        ("mappings.py", "check_size_cap")]
    assert sum(len(constructed(node)) for _, node in nodes
               if isinstance(node, ast.Module)) == 1


def test_no_unused_imports():
    # The two names perfbench/run.py's tracer wraps are imported for it alone
    # (see test_perfbench_hooks); any other unused import is dead code.  A
    # string equal to the name, as in ``__all__``, counts as a use.
    imported, used = set(), set()
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            imported.update((name, a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((name, a.asname or a.name) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add((name, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add((name, node.value))
    assert sorted(imported - used) == [("kernel.py", "compute_hall_partition"),
                                       ("sudoku.py", "alldifferent_kernel")]


def test_every_line_linecov_allows_is_still_there():
    # tests/linecov.py lets the lines of each snippet go unreached; a snippet
    # that no longer matches, or matches twice, would allow nothing or too much.
    assert [(file, snippet) for file, snippet, _ in ALLOWED
            if (PACKAGE / file).read_text(encoding="utf-8").count(snippet) != 1] == []


def test_only_the_sudoku_module_names_a_grids_slot_fields():
    # How a grid lays out its cells is the sudoku module's decision; every
    # other module and the demos read a grid through its public names.
    from hallkernel.sudoku import SudokuGrid
    private = {name for name in SudokuGrid.__slots__ if name.startswith("_")}
    demos = Path(__file__).resolve().parent.parent / "demos"
    sources = [(name, node) for name, node in package_nodes() if name != "sudoku.py"]
    sources += [(path.name, node) for path in sorted(demos.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    assert private and demos.is_dir()
    assert [f"{name}:{node.lineno}" for name, node in sources
            if getattr(node, "attr", None) in private
            or isinstance(node, ast.Constant) and node.value in private] == []
