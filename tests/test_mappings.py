import pytest
from hypothesis import assume, given, settings

from hallkernel import (
    DomainError,
    FiniteMapping,
    InvalidMappingError,
    SizeCapError,
    complement,
    image_of_set,
    is_critical,
    is_non_reducible,
    residual,
)
from hallkernel.oracle import oracle_hall_check

from conftest import critical_sets, mappings, nonempty_subsets

M1 = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})


class TestConstruction:
    def test_from_dict_orders(self):
        assert M1.x_labels == (1, 2, 3)
        assert M1.y_labels == (1, 2, 3)
        assert M1.image(3) == {1, 2, 3}

    def test_unsortable_labels_keep_first_appearance_order(self):
        f = FiniteMapping.from_dict({1: ["b", 2], 2: [2, "a"]})
        assert f.y_labels == ("b", 2, "a")

    def test_unsortable_labels_of_a_set_image_go_by_type_name_then_repr(self):
        # A set's own order follows the hash seed; see test_cli for two seeds.
        f = FiniteMapping.from_dict({"p": ["b", 2], "q": {"a", 3, "c"}, "r": frozenset({1})})
        assert f.y_labels == ("b", 2, 3, "a", "c", 1)
        # ``<`` on sets is the subset test, so ``sorted`` leaves two sets that
        # neither holds in the order it got them: set labels go by their
        # members, and a chain of subsets is sorted.
        ab, ac, a = frozenset({"a", "b"}), frozenset({"a", "c"}), frozenset({"a"})
        assert FiniteMapping.from_dict({"p": {ac, ab}}).y_labels == (ab, ac)
        assert FiniteMapping.from_dict({"p": {ac, ab, 1}}).y_labels == (ab, ac, 1)
        assert FiniteMapping.from_dict({"p": [ab, a]}).y_labels == (a, ab)
        # A tuple label goes by its members' keys, in order, not by its repr,
        # which shows a set member in hash-seed order.
        assert FiniteMapping.from_dict({"p": {(ac,), (ab,), 1}}).y_labels == (1, (ab,), (ac,))

    def test_explicit_y_order(self):
        f = FiniteMapping.from_dict({1: {2}}, y_order=(3, 2, 1))
        assert f.y_labels == (3, 2, 1)

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidMappingError):
            FiniteMapping((), (1,), {})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidMappingError):
            FiniteMapping((1, 1), (1,), {1: {1}})
        with pytest.raises(InvalidMappingError):
            FiniteMapping((1,), (2, 2), {1: {2}})

    def test_image_outside_codomain_rejected(self):
        with pytest.raises(InvalidMappingError):
            FiniteMapping((1,), (1,), {1: {1, 7}})

    def test_missing_image_rejected(self):
        with pytest.raises(InvalidMappingError):
            FiniteMapping((1, 2), (1,), {1: {1}})

    def test_image_outside_the_domain_rejected(self):
        with pytest.raises(InvalidMappingError, match="2 has an image but is not in the domain"):
            FiniteMapping((1,), (1,), {1: {1}, 2: {1}})

    def test_repr_shows_an_empty_image(self):
        f = FiniteMapping.from_dict({1: set(), 2: {3}})
        assert repr(f) == "FiniteMapping({1: {}, 2: {3}})"

    def test_equality_is_structural(self):
        again = FiniteMapping.from_dict({1: [2, 1], 2: {1, 2}, 3: {1, 2, 3}})
        assert again == M1
        assert hash(again) == hash(M1)
        assert M1 != FiniteMapping.from_dict({1: {1}, 2: {1, 2}, 3: {1, 2, 3}})
        assert M1.__eq__(1) is NotImplemented
        assert M1 != 1


class TestImageOfSet:
    def test_empty_subset(self):
        assert image_of_set(M1, ()) == frozenset()

    def test_union(self):
        assert image_of_set(M1, {1, 2}) == {1, 2}
        assert image_of_set(M1, {1, 3}) == {1, 2, 3}

    def test_unknown_element(self):
        with pytest.raises(DomainError):
            image_of_set(M1, {9})
        with pytest.raises(DomainError, match="'zz' is not in the domain"):
            M1.image("zz")


class TestComplement:
    def test_dropping_nothing_is_identity(self):
        assert complement(M1, (), ()) == M1

    def test_drop_and_strike(self):
        got = complement(M1, {1}, {1, 2})
        assert got.x_labels == (2, 3)
        assert got.y_labels == (3,)
        assert got.image(2) == frozenset()
        assert got.image(3) == {3}

    def test_restriction_only(self):
        got = complement(M1, {3}, ())
        assert got == FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}},
                                              y_order=(1, 2, 3))

    def test_whole_domain_rejected(self):
        with pytest.raises(DomainError):
            complement(M1, {1, 2, 3}, ())

    def test_unknown_value_rejected(self):
        with pytest.raises(DomainError, match="'zz' is not in the codomain"):
            complement(M1, (), ("zz",))


class TestResidual:
    def test_example(self):
        assert residual(M1, {1, 2}) == FiniteMapping((3,), (3,), {3: {3}})

    def test_empty_subset_is_identity(self):
        assert residual(M1, ()) == M1

    def test_chaining_example(self):
        assert residual(residual(M1, {1, 2}), ()) == residual(M1, {1, 2})

    def test_whole_domain_rejected(self):
        with pytest.raises(DomainError):
            residual(M1, {1, 2, 3})


class TestPredicates:
    def test_critical_examples(self):
        assert is_critical(M1, {1, 2})
        assert not is_critical(M1, ())
        assert not is_critical(M1, {3})

    def test_non_reducible_examples(self):
        assert is_non_reducible(M1, {1})
        assert is_non_reducible(M1, {1, 2})
        f = FiniteMapping.from_dict({1: {1}, 2: {1, 2}})
        assert not is_non_reducible(f, {1, 2})
        assert not is_non_reducible(f, ())

    def test_non_reducible_cap(self):
        wide = FiniteMapping.from_dict({i: {i} for i in range(25)})
        with pytest.raises(SizeCapError):
            is_non_reducible(wide, range(25))


@given(mappings())
def test_monotonicity_of_images(f):
    labels = f.x_labels
    for w in nonempty_subsets(labels):
        bigger = image_of_set(f, labels)
        assert image_of_set(f, w) <= bigger


@given(mappings())
def test_image_splits_disjointly_at_any_subset(f):
    # The total image is the image of W plus whatever only the rest can reach.
    total = image_of_set(f, f.x_labels)
    for w in nonempty_subsets(f.x_labels):
        if len(w) == len(f.x_labels):
            continue
        rest = residual(f, w)
        outside = image_of_set(rest, rest.x_labels)
        inside = image_of_set(f, w)
        assert inside | outside == total
        assert not inside & outside


@given(mappings(max_x=4, max_y=4))
def test_residual_chaining(f):
    labels = f.x_labels
    for w in nonempty_subsets(labels):
        for v in nonempty_subsets(set(labels) - set(w)):
            if len(w) + len(v) == len(labels):
                continue
            assert residual(residual(f, w), v) == residual(f, set(w) | set(v))


@given(mappings(max_x=5, max_y=5, min_image=1))
@settings(max_examples=60)
def test_residual_of_critical_preserves_hall(f):
    assume(oracle_hall_check(f) is None)
    for w in critical_sets(f):
        if len(w) == len(f.x_labels):
            continue
        assert oracle_hall_check(residual(f, w)) is None


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=60)
def test_critical_sets_contain_a_non_reducible_critical_core(f):
    for w in critical_sets(f):
        cores = [v for v in nonempty_subsets(w)
                 if is_critical(f, v) and is_non_reducible(f, v)]
        assert cores, f"no critical non-reducible core inside {set(w)}"
        assert all(set(v) <= set(w) for v in cores)
