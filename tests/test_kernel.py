import hashlib
import random

import pytest
from hypothesis import assume, given, settings

from hallkernel import (
    DomainError,
    FiniteMapping,
    HallPartition,
    HallViolation,
    InvalidPartitionError,
    SizeCapError,
    alldifferent_kernel,
    check_hall,
    compute_hall_partition,
    extract_selection,
    has_unique_selection,
    is_alldifferent,
    image_of_set,
    iter_selections,
    kernel_from_partition,
    punctured_mapping,
    residual,
)
from hallkernel.oracle import enumerate_selections, oracle_kernel

from conftest import (
    all_mappings_3x3, critical_sets, hall_mappings, mappings, random_mapping, relabelled)

M1 = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})
PERM3 = FiniteMapping.from_dict({i: {i} for i in (1, 2, 3)})
PIGEON = FiniteMapping.from_dict({1: {1}, 2: {1}})


class TestKernelFromPartition:
    def test_m1(self):
        kern = kernel_from_partition(M1, compute_hall_partition(M1))
        assert kern.images_by_label() == {1: {1, 2}, 2: {1, 2}, 3: {3}}
        assert not kern.is_empty

    def test_permutation_keeps_everything(self):
        kern = kernel_from_partition(PERM3, compute_hall_partition(PERM3))
        assert kern.images_by_label() == PERM3.images_by_label()

    def test_single_block_removes_nothing(self):
        f = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2, 3}})
        kern = kernel_from_partition(f, compute_hall_partition(f))
        assert kern.images_by_label() == f.images_by_label()

    def test_invalid_partition_is_a_contract_error(self):
        bogus = HallPartition(
            blocks=(frozenset({1}), frozenset({2}), frozenset({3})),
            residual_images=(frozenset({1, 2}), frozenset({1, 2}), frozenset({3})))
        with pytest.raises(InvalidPartitionError):
            kernel_from_partition(M1, bogus)
        with pytest.raises(InvalidPartitionError):
            kernel_from_partition(PIGEON, compute_hall_partition(PIGEON))


class TestAlldifferentKernel:
    def test_m1(self):
        assert alldifferent_kernel(M1).images_by_label() == {
            1: {1, 2}, 2: {1, 2}, 3: {3}}

    def test_violation_gives_all_empty_plus_witness(self):
        kern = alldifferent_kernel(PIGEON)
        assert kern.is_empty
        assert kern.witness == HallViolation(frozenset({1, 2}))

    def test_permutation(self):
        assert alldifferent_kernel(PERM3).images_by_label() == PERM3.images_by_label()

    def test_image_of_one_element(self):
        kern = alldifferent_kernel(M1)
        assert kern.image(3) == {3}
        with pytest.raises(DomainError, match="4 is not in the domain"):
            kern.image(4)


@pytest.mark.parametrize("lookup, ground", [
    (lambda label: M1.image(label), "domain"),
    (lambda label: M1.x_bits([1, label]), "domain"),
    (lambda label: M1.y_bits([1, label]), "codomain"),
    (lambda label: alldifferent_kernel(M1).image(label), "domain"),
    (lambda label: extract_selection(M1)[label], "domain"),
], ids=["image", "x_bits", "y_bits", "KernelMapping.image", "Selection"])
@pytest.mark.parametrize("label", [4, "zz", [1]], ids=["int", "str", "unhashable"])
def test_an_unknown_label_is_a_domain_error_naming_it(lookup, ground, label):
    with pytest.raises(DomainError) as caught:
        lookup(label)
    assert str(caught.value) == f"{label!r} is not in the {ground}"


class TestIsAlldifferent:
    def test_examples(self):
        assert is_alldifferent(PERM3)
        assert not is_alldifferent(M1)
        assert is_alldifferent(FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}}))

    def test_empty_image_is_not_alldifferent(self):
        assert not is_alldifferent(
            FiniteMapping((1, 2), (1,), {1: (), 2: {1}}))


class TestHasUniqueSelection:
    def test_examples(self):
        assert has_unique_selection(PERM3)
        assert not has_unique_selection(M1)
        assert has_unique_selection(
            FiniteMapping.from_dict({1: {1}, 2: {1, 2}, 3: {1, 2, 3}}))

    def test_violating_mapping(self):
        assert not has_unique_selection(PIGEON)


class TestExtractSelection:
    def test_least_index_tie_breaking(self):
        assert extract_selection(M1).as_dict() == {1: 1, 2: 2, 3: 3}

    def test_permutation_is_forced(self):
        assert extract_selection(PERM3).as_dict() == {1: 1, 2: 2, 3: 3}

    def test_violation_passthrough(self):
        assert extract_selection(PIGEON) == HallViolation(frozenset({1, 2}))

    def test_label_outside_the_domain_is_a_domain_error(self):
        selection = extract_selection(M1)
        assert selection[3] == 3
        with pytest.raises(DomainError, match="4"):
            selection[4]

    def test_violation_inside_a_block_is_an_invariant_error(self, monkeypatch):
        # Unreachable with a correct scan; it must raise, not pass silently.
        # The scan hands over one block of two elements on one value.
        monkeypatch.setattr("hallkernel.kernel.hall_scan", lambda *args: ((0b11,), (0b1,)))
        with pytest.raises(RuntimeError, match="no complete matching"):
            extract_selection(PIGEON)


class TestPuncturedMapping:
    def test_examples(self):
        assert punctured_mapping(
            FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}}), 1, 1) == \
            FiniteMapping((2,), (2,), {2: {2}})
        assert punctured_mapping(
            FiniteMapping.from_dict({1: {1}, 2: {2}}), 1, 1) == \
            FiniteMapping((2,), (2,), {2: {2}})
        assert punctured_mapping(M1, 3, 3) == \
            FiniteMapping((1, 2), (1, 2), {1: {1, 2}, 2: {1, 2}})

    def test_value_outside_image_rejected(self):
        with pytest.raises(DomainError):
            punctured_mapping(M1, 1, 3)


@pytest.mark.parametrize("entry", [compute_hall_partition, check_hall, alldifferent_kernel,
                                   is_alldifferent, has_unique_selection,
                                   extract_selection])
def test_size_cap_at_every_entry_point(entry):
    # K25,24 violates Hall with no size-1 witness, so the scan must walk 25.
    wide = FiniteMapping.from_dict({i: range(24) for i in range(25)})
    with pytest.raises(SizeCapError,
                       match="^partition scan over 25 elements exceeds the cap of 24$"):
        entry(wide)


def closed_forms(n):
    """Families with known answers, as ``(images, partition, kernel images,
    is_alldifferent, has_unique_selection)``; the least selection of each is
    the identity."""
    every = frozenset(range(n))
    path = [frozenset({i, i + 1}) for i in range(n)]
    singles = [frozenset({i}) for i in range(n)]
    return {
        "path": (path, HallPartition((every,), (every | {n},)),
                 path, True, False),
        "triangular": ([frozenset(range(i + 1)) for i in range(n)],
                       HallPartition(tuple(singles), tuple(singles)),
                       singles, False, True),
        "complete": ([every] * n, HallPartition((every,), (every,)),
                     [every] * n, True, False),
        "singletons": (singles, HallPartition(tuple(singles), tuple(singles)),
                       singles, True, True),
    }


@pytest.mark.parametrize("family", ["path", "triangular", "complete", "singletons"])
@pytest.mark.parametrize("n", [25, 40, 60])
def test_closed_forms_above_the_cap(n, family):
    images, partition, kernel, alldifferent, unique = closed_forms(n)[family]
    f = FiniteMapping.from_dict(dict(enumerate(images)))
    assert compute_hall_partition(f) == partition
    assert check_hall(f) is None
    assert alldifferent_kernel(f).images == tuple(kernel)
    assert is_alldifferent(f) is alldifferent
    assert has_unique_selection(f) is unique
    assert extract_selection(f).values == tuple(range(n))
    assert next(iter_selections(f)).values == tuple(range(n))


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=200)
def test_kernel_matches_oracle(f):
    assert alldifferent_kernel(f) == oracle_kernel(f)


@given(hall_mappings(max_x=5, max_y=5))
@settings(max_examples=100)
def test_kernel_is_a_fixpoint(f):
    kern = alldifferent_kernel(f)
    assert not kern.is_empty
    again = FiniteMapping(f.x_labels, f.y_labels, kern.images_by_label())
    assert alldifferent_kernel(again).images == kern.images


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=100)
def test_every_kernel_value_lies_on_a_selection(f):
    kern = alldifferent_kernel(f)
    selections = enumerate_selections(f)
    for x, img in kern.images_by_label().items():
        for y in img:
            assert any(s[x] == y for s in selections)


@given(mappings(max_x=5, max_y=5, min_image=1))
@settings(max_examples=60)
def test_selections_avoid_critical_set_images(f):
    selections = enumerate_selections(f)
    assume(selections)
    for w in critical_sets(f):
        if len(w) == len(f.x_labels):
            continue
        rest = residual(f, w)
        for s in selections:
            for x in rest.x_labels:
                assert s[x] in rest.image(x)


@given(mappings(max_x=4, max_y=5, min_image=1))
@settings(max_examples=60)
def test_alldifferent_iff_every_puncture_keeps_a_selection(f):
    assume(len(f.x_labels) >= 2)
    by_puncture = all(
        check_hall(punctured_mapping(f, x, y)) is None
        for x in f.x_labels for y in f.image(x))
    assert is_alldifferent(f) == by_puncture


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=60)
def test_alldifferent_iff_critical_images_split_cleanly(f):
    has_selection = bool(enumerate_selections(f))
    clean = has_selection and all(
        not (image_of_set(f, w) & image_of_set(f, set(f.x_labels) - w))
        for w in critical_sets(f))
    assert is_alldifferent(f) == clean


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=150)
def test_unicity_agrees_with_oracle_count(f):
    count = len(enumerate_selections(f))
    unique = has_unique_selection(f)
    assert unique == (count == 1)
    if unique:
        partition = compute_hall_partition(f)
        assert len(partition.blocks) == len(f.x_labels)
        assert all(len(b) == 1 for b in partition.blocks)
        kern = alldifferent_kernel(f)
        assert all(len(img) == 1 for img in kern.images)


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=100)
def test_extracted_selections_are_injective_members(f):
    got = extract_selection(f)
    if isinstance(got, HallViolation):
        assert enumerate_selections(f) == []
        return
    assert len(set(got.values)) == len(f.x_labels)
    assert all(y in f.image(x) for x, y in got.items())


#: sha256 of the default selections over the corpus below, recorded with the
#: puncture recursion (one re-partition per pick) that the matching walk replaced.
SELECTION_TRANSCRIPT_SHA256 = (
    "f1eed0c0d23b9bc48588f3fc92fcf98043d5fa34ccccb3c2a3e2614e40976db0")


def test_bit_level_selection_matches_label_level_transcript():
    rng = random.Random(20220201)
    corpus = list(all_mappings_3x3()) + [random_mapping(rng, max_x=8, max_y=8)
                                         for _ in range(2000)]
    digest = hashlib.sha256()
    for mapping in corpus:
        digest.update(repr(extract_selection(mapping)).encode())
    assert digest.hexdigest() == SELECTION_TRANSCRIPT_SHA256


def assert_least_selection(f):
    """The selection is the oracle's first, or the scan's witness when there is none."""
    got = extract_selection(f)
    first = enumerate_selections(f, limit=1)
    assert got == (first[0] if first else check_hall(f))


def test_selection_is_the_first_enumerated():
    rng = random.Random(20261019)
    for f in all_mappings_3x3():
        assert_least_selection(f)
    for _ in range(2000):
        assert_least_selection(random_mapping(rng, max_x=9, max_y=9))


@given(mappings(max_x=6, max_y=6))
@settings(max_examples=200)
def test_selection_is_the_first_enumerated_property(f):
    assert_least_selection(f)


def test_iter_selections_match_the_oracle():
    rng = random.Random(20261021)
    corpus = list(all_mappings_3x3()) + [random_mapping(rng, max_x=8, max_y=8)
                                         for _ in range(2000)]
    for f in corpus:
        selections = list(iter_selections(f))
        assert selections == enumerate_selections(f)
        if selections:
            assert extract_selection(f) == selections[0]


@given(mappings(max_x=6, max_y=6))
@settings(max_examples=200)
def test_iter_selections_match_the_oracle_property(f):
    assert list(iter_selections(f)) == enumerate_selections(f)


@pytest.mark.parametrize("n", [16, 20])
def test_path_selections_above_the_oracle_cap(n):
    # Element i takes i or i + 1: the last j elements take i + 1, for j = 0..n.
    f = FiniteMapping.from_dict({i: {i, i + 1} for i in range(n)})
    assert [s.values for s in iter_selections(f)] == [
        tuple(range(n - j)) + tuple(range(n - j + 1, n + 1)) for j in range(n + 1)]


def test_triangular_chain_has_one_selection():
    f = FiniteMapping.from_dict({i: set(range(i + 1)) for i in range(20)})
    assert [s.values for s in iter_selections(f)] == [tuple(range(20))]


def test_iter_selections_size_cap(monkeypatch):
    # The walk is polynomial, so no size is refused.
    complete = FiniteMapping.from_dict({i: range(25) for i in range(25)})
    assert next(iter_selections(complete)).values == tuple(range(25))

    def refuse(*args):
        raise AssertionError("a selection walk ran the scan")

    monkeypatch.setattr("hallkernel.kernel.kernel_bits", refuse)
    monkeypatch.setattr("hallkernel.kernel.hall_scan", refuse)
    wide = FiniteMapping.from_dict({i: range(24) for i in range(25)})
    assert list(iter_selections(wide)) == []


def test_violator_above_the_cap_is_refused():
    # A witness the size-1 pass finds needs no walk; K25,24's needs one over 25.
    wide = FiniteMapping.from_dict({i: range(24) for i in range(25)})
    with pytest.raises(SizeCapError, match="exceeds the cap of 24"):
        extract_selection(wide)
    pigeons = FiniteMapping.from_dict({i: {0} for i in range(25)})
    assert extract_selection(pigeons) == HallViolation(frozenset({0, 1}))


@pytest.mark.parametrize("f", [
    M1, PERM3,
    FiniteMapping.from_dict({i: {i, i + 1} for i in range(20)}),
    FiniteMapping.from_dict({i: set(range(i + 1)) for i in range(20)}),
], ids=["M1", "PERM3", "path20", "triangular20"])
def test_selections_run_no_scan(f, monkeypatch):
    expected = enumerate_selections(f, cap=len(f.x_labels))

    def refuse(*args):
        raise AssertionError("a selection of a Hall-satisfying mapping ran the scan")

    monkeypatch.setattr("hallkernel.kernel.kernel_bits", refuse)
    monkeypatch.setattr("hallkernel.kernel.hall_scan", refuse)
    assert list(iter_selections(f)) == expected
    assert extract_selection(f) == expected[0]


def chained_blocks(rng, n, largest):
    """Images of ``n`` positions in blocks of 1 to ``largest`` positions.

    Each block is a cycle over values of its own, so it is strongly connected,
    plus random edges into its own and the earlier blocks' values.
    """
    images = []
    start = 0
    while start < n:
        size = min(rng.randint(1, largest), n - start)
        own = rng.sample(range(start, start + size), size)
        for k in range(size):
            images.append({own[k], own[(k + 1) % size]}
                          | {y for y in range(start + size) if rng.random() < 0.15})
        start += size
    return images


def large_selection_corpus():
    """Seeded mappings of 10 to 20 elements, above the oracle's cap and the cutoff.

    Paths, shuffled triangular chains, single blocks, chains of critical
    blocks, chains ending in a non-critical block and Hall violators, each
    with shuffled ground-set orders where that matters.
    """
    rng = random.Random(20261020)
    for n in range(10, 21):
        path = [{i, i + 1} for i in range(n)]
        families = [path, path, [set(range(i + 1)) for i in range(n)]]
        for _ in range(6):
            families.append(chained_blocks(rng, n, n))
            families.append(chained_blocks(rng, n, 5))
            spare = chained_blocks(rng, n, 5)
            rng.choice(spare).add(n)
            families.append(spare)
        for _ in range(4):
            fresh = ({n}, {n + 1})
            bits = [img | (rng.choice(fresh) if rng.random() < 0.2 else set())
                    for img in chained_blocks(rng, n - 3, 5)]
            families.append(bits + [{n, n + 1}] * 3)
        for k, images in enumerate(families):
            f = FiniteMapping(range(len(images)), range(n + 2), dict(enumerate(images)))
            yield f if k == 0 else relabelled(f, rng)


#: sha256 of the default selections over :func:`large_selection_corpus`,
#: recorded with the puncture recursion that the matching walk replaced.
LARGE_SELECTION_SHA256 = (
    "71146606be0fed76b6856d56bdf27e9fd381265a70751d0a28bfada2c3f470b1")


def test_selections_above_the_caps_are_pinned():
    digest = hashlib.sha256()
    for f in large_selection_corpus():
        digest.update(repr(extract_selection(f)).encode())
    assert digest.hexdigest() == LARGE_SELECTION_SHA256


def test_selection_is_the_first_walked_above_the_caps():
    for f in large_selection_corpus():
        first = next(iter_selections(f), None)
        assert extract_selection(f) == (check_hall(f) if first is None else first)
