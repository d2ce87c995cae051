import pytest
from hypothesis import given, settings

from hallkernel import FiniteMapping, SizeCapError, check_hall
from hallkernel.oracle import (
    enumerate_selections,
    oracle_hall_check,
    oracle_hall_scan,
    oracle_kernel,
)

from conftest import mappings

M1 = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})
PERM3 = FiniteMapping.from_dict({i: {i} for i in (1, 2, 3)})
PIGEON = FiniteMapping.from_dict({1: {1}, 2: {1}})


class TestEnumerateSelections:
    def test_value_tuples_in_dfs_order(self):
        assert [s.values for s in enumerate_selections(M1)] == [(1, 2, 3), (2, 1, 3)]

    def test_limit_keeps_the_first(self):
        full = FiniteMapping.from_dict({i: range(4) for i in range(4)})
        for limit in (0, 1, 5, 24, 30):
            assert enumerate_selections(full, limit=limit) == \
                enumerate_selections(full)[:limit]
        assert enumerate_selections(PIGEON, limit=1) == []
        with pytest.raises(ValueError, match="-1"):
            enumerate_selections(full, limit=-1)

    def test_pigeonhole_has_none(self):
        assert enumerate_selections(PIGEON) == []

    def test_permutation_is_forced(self):
        (only,) = enumerate_selections(PERM3)
        assert only.as_dict() == {1: 1, 2: 2, 3: 3}

    def test_cap(self):
        wide = FiniteMapping.from_dict({i: {i} for i in range(13)})
        with pytest.raises(SizeCapError):
            enumerate_selections(wide)
        assert len(enumerate_selections(wide, cap=13)) == 1


class TestOracleKernel:
    def test_m1(self):
        assert oracle_kernel(M1).images_by_label() == {
            1: {1, 2}, 2: {1, 2}, 3: {3}}

    def test_selection_free_is_all_empty(self):
        kern = oracle_kernel(PIGEON)
        assert kern.is_empty
        assert all(img == frozenset() for img in kern.images)

    def test_permutation_is_fixed(self):
        assert oracle_kernel(PERM3).images_by_label() == PERM3.images_by_label()


class TestOracleHallCheck:
    def test_pigeonhole(self):
        assert oracle_hall_check(PIGEON).witness == {1, 2}

    def test_permutation(self):
        assert oracle_hall_check(PERM3) is None

    def test_smallest_then_lexicographic_witness(self):
        f = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2}})
        assert oracle_hall_check(f).witness == {1, 2, 3}

    def test_cap(self):
        wide = FiniteMapping.from_dict({i: {i} for i in range(21)})
        with pytest.raises(SizeCapError):
            oracle_hall_check(wide)
        with pytest.raises(SizeCapError, match="subset scan over 21 elements"):
            oracle_hall_scan(wide.image_bits)


@given(mappings())
@settings(max_examples=150)
def test_marriage_equivalence_on_random_instances(f):
    hall = oracle_hall_check(f) is None
    assert hall == bool(enumerate_selections(f))
    assert hall == (check_hall(f) is None)
