"""Value semantics of the result records: repr, equality, hash, immutability,
copying and pickling, and positional match patterns."""

import copy
import pickle

import pytest

from hallkernel import (
    ExitKind,
    FiniteMapping,
    HallPartition,
    HallViolation,
    KernelMapping,
    Selection,
)
from hallkernel.sudoku import SudokuGrid, Unit, compute_markups, parse_grid, propagate

from conftest import INKALA

BASE = FiniteMapping.from_dict({1: (1, 2), 2: (2,)})


def grid_repr() -> str:
    # (1, 2) lists {3}; every other open cell has all nine digits, less the
    # 5 where it shares a row, column or block with (1, 1).
    digits = frozenset(range(1, 10))
    cells = [(r, c) for r in range(1, 10) for c in range(1, 10)][2:]
    markups = [f"{cell!r}: {digits - {5} if 1 in cell or max(cell) <= 3 else digits!r}"
               for cell in cells]
    return ("SudokuGrid(givens={(1, 1): 5}, candidates={(1, 2): frozenset({3}), "
            + ", ".join(markups) + "})")


#: A builder of one record of each class, and the record's literal repr.
RECORDS = [
    (lambda: HallPartition((frozenset({2}), frozenset({1})),
                           (frozenset({"b"}), frozenset({"a"}))),
     "HallPartition(blocks=(frozenset({2}), frozenset({1})), residual_images="
     "(frozenset({'b'}), frozenset({'a'})))"),
    (lambda: HallViolation(frozenset({3})), "HallViolation(witness=frozenset({3}))"),
    (lambda: Selection((1, 2), ("a", "b")), "Selection(x_labels=(1, 2), values=('a', 'b'))"),
    (lambda: KernelMapping(BASE, (frozenset({1}), frozenset({2}))),
     "KernelMapping(base=FiniteMapping({1: {1, 2}, 2: {2}}), "
     "images=(frozenset({1}), frozenset({2})), witness=None)"),
    (lambda: Unit("row", 1, ((1, 1), (1, 2))),
     "Unit(kind='row', index=1, cells=((1, 1), (1, 2)))"),
    (lambda: SudokuGrid({(1, 1): 5}, {(1, 2): {3}}), grid_repr()),
]

#: ``pickle.dumps(SudokuGrid({(1, 1): 5}, {(1, 2): {3}}))`` (protocol 4) from
#: when a grid was a mutable pair of dicts: a call of the class on the two.
DICT_PAIR_GRID_PICKLE = (
    b"\x80\x04\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\x11hallkernel.sudoku\x94\x8c\n"
    b"SudokuGrid\x94\x93\x94}\x94K\x01K\x01\x86\x94K\x05s}\x94K\x01K\x02\x86\x94\x8f"
    b"\x94(K\x03\x90s\x86\x94R\x94.")


@pytest.mark.parametrize("make, text", RECORDS)
def test_repr_equality_and_copies(make, text):
    record = make()
    assert repr(record) == text
    assert record == make() and record is not make()
    assert record.__eq__(object()) is NotImplemented
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


@pytest.mark.parametrize("make, text", RECORDS)
def test_frozen_records_hash_by_value_and_refuse_changes(make, text):
    record = make()
    assert hash(record) == hash(make())
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


def test_finite_mapping_refuses_changes_and_copies_by_value():
    # A codomain value no image holds and an empty image survive the copies.
    mapping = FiniteMapping((1, 2), (1, 2, 3), {1: {1, 2}, 2: set()})
    for name in FiniteMapping.__slots__:
        with pytest.raises(AttributeError):
            setattr(mapping, name, getattr(mapping, name))
        with pytest.raises(AttributeError):
            delattr(mapping, name)
    assert mapping.image_bits == (0b11, 0) and mapping in {mapping}
    for clone in (copy.copy(mapping), copy.deepcopy(mapping),
                  pickle.loads(pickle.dumps(mapping))):
        assert type(clone) is FiniteMapping and clone == mapping
        assert hash(clone) == hash(mapping) and repr(clone) == repr(mapping)
        assert clone.y_labels == (1, 2, 3) and clone.image(2) == frozenset()


def test_records_of_different_classes_never_compare_equal():
    assert Selection((1,), ("a",)).__eq__(HallViolation(frozenset({1}))) is NotImplemented
    assert Selection((1,), ("a",)) != HallViolation(frozenset({1}))
    assert Unit("row", 1, ()) != ("row", 1, ())


def test_kernel_witness_takes_no_part_in_equality_or_hash():
    empty = (frozenset(), frozenset())
    plain = KernelMapping(BASE, empty)
    witnessed = KernelMapping(BASE, empty, witness=HallViolation(frozenset({1, 2})))
    assert plain == witnessed and hash(plain) == hash(witnessed)
    assert pickle.loads(pickle.dumps(witnessed)).witness == witnessed.witness
    assert copy.deepcopy(witnessed).witness == witnessed.witness


def test_sudoku_grid_refuses_writes_through_its_mappings():
    grid = SudokuGrid({(1, 1): 5}, {(1, 2): {3}})
    for mapping, cell, value in ((grid.givens, (1, 1), 6), (grid.candidates, (1, 2), {4}),
                                 (grid.candidates, (9, 9), {1})):
        with pytest.raises(TypeError):
            mapping[cell] = value
        with pytest.raises(TypeError):
            del mapping[cell]
    with pytest.raises(AttributeError):
        grid.candidates[(1, 2)].add(4)
    for name in SudokuGrid.__slots__:
        with pytest.raises(AttributeError):
            setattr(grid, name, None)
    assert grid == SudokuGrid({(1, 1): 5}, {(1, 2): {3}}) and grid.givens == {(1, 1): 5}


def test_sudoku_grid_pickled_as_a_dict_pair_loads_to_an_equal_grid():
    grid = pickle.loads(DICT_PAIR_GRID_PICKLE)
    assert type(grid) is SudokuGrid and grid == SudokuGrid({(1, 1): 5}, {(1, 2): {3}})
    assert repr(grid) == grid_repr()


def test_sudoku_grid_of_givens_is_its_markups():
    grid = parse_grid(INKALA)
    givens = dict(grid.givens)
    assert SudokuGrid(givens) == compute_markups(SudokuGrid(givens)) \
        == propagate(SudokuGrid(givens), max_sweeps=0) == grid
    assert hash(SudokuGrid(givens)) == hash(grid) and len(grid.candidates) == 81 - len(givens)


def test_positional_match_patterns():
    def fields(record):
        match record:
            case HallPartition(blocks, _, ExitKind.LAST_BLOCK_CRITICAL):
                return "partition", blocks
            case HallViolation(witness):
                return "violation", witness
            case Selection(x_labels, values):
                return "selection", dict(zip(x_labels, values))
            case KernelMapping(base, images, None):
                return "kernel", base is BASE, images
            case Unit(kind, index, _):
                return kind, index
            case SudokuGrid(givens, candidates):
                return "grid", givens, candidates[(1, 2)]

    assert [fields(make()) for make, _ in RECORDS] == [
        ("partition", (frozenset({2}), frozenset({1}))),
        ("violation", frozenset({3})),
        ("selection", {1: "a", 2: "b"}),
        ("kernel", True, (frozenset({1}), frozenset({2}))),
        ("row", 1),
        ("grid", {(1, 1): 5}, {3}),
    ]
