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
from hallkernel.sudoku import SudokuGrid, Unit

BASE = FiniteMapping.from_dict({1: (1, 2), 2: (2,)})

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
    (lambda: SudokuGrid({(1, 1): 5}, {(1, 2): {3}}),
     "SudokuGrid(givens={(1, 1): 5}, candidates={(1, 2): {3}})"),
]
FROZEN = RECORDS[:-1]


@pytest.mark.parametrize("make, text", RECORDS)
def test_repr_equality_and_copies(make, text):
    record = make()
    assert repr(record) == text
    assert record == make() and record is not make()
    assert record.__eq__(object()) is NotImplemented
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


@pytest.mark.parametrize("make, text", FROZEN)
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
    mapping = FiniteMapping.from_dict({1: {1, 2}, 2: set()}, y_order=(1, 2, 3))
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


def test_sudoku_grid_is_mutable_unhashable_and_defaults_to_fresh_dicts():
    grid, other = SudokuGrid(), SudokuGrid()
    assert grid.givens == grid.candidates == {} and grid.givens is not other.givens
    with pytest.raises(TypeError):
        hash(grid)
    grid.givens = {(1, 1): 5}
    assert grid != other and grid == SudokuGrid({(1, 1): 5})
    deep = copy.deepcopy(grid)
    deep.givens[(1, 1)] = 6
    assert grid.givens == {(1, 1): 5}


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
                return "grid", givens, candidates

    assert [fields(make()) for make, _ in RECORDS] == [
        ("partition", (frozenset({2}), frozenset({1}))),
        ("violation", frozenset({3})),
        ("selection", {1: "a", 2: "b"}),
        ("kernel", True, (frozenset({1}), frozenset({2}))),
        ("row", 1),
        ("grid", {(1, 1): 5}, {(1, 2): {3}}),
    ]
