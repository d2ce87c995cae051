import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallkernel import (
    DomainError,
    ExitKind,
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
    kernel_from_partition,
    punctured_mapping,
    residual,
)
from hallkernel.oracle import enumerate_selections, oracle_kernel
from hallkernel.partition import hall_scan

from conftest import all_mappings_3x3, critical_sets, mappings, random_mapping

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
            residual_images=(frozenset({1, 2}), frozenset({1, 2}), frozenset({3})),
            exit_kind=ExitKind.LAST_BLOCK_CRITICAL)
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


class TestIsAlldifferent:
    def test_examples(self):
        assert is_alldifferent(PERM3)
        assert not is_alldifferent(M1)
        assert is_alldifferent(FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}}))

    def test_empty_image_is_not_alldifferent(self):
        assert not is_alldifferent(
            FiniteMapping.from_dict({1: (), 2: {1}}, y_order=(1,)))


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

    def test_alternative_pickers_still_produce_a_selection(self):
        got = extract_selection(
            M1,
            choose_x=lambda labels: labels[-1],
            choose_y=lambda x, labels: labels[-1])
        values = got.as_dict()
        assert sorted(values) == [1, 2, 3]
        assert len(set(values.values())) == 3
        assert all(y in M1.image(x) for x, y in values.items())

    def test_label_outside_the_domain_is_a_domain_error(self):
        selection = extract_selection(M1)
        assert selection[3] == 3
        with pytest.raises(DomainError, match="4"):
            selection[4]

    def test_bad_picker_is_rejected(self):
        with pytest.raises(DomainError):
            extract_selection(M1, choose_x=lambda labels: "nope")

    def test_violation_inside_a_block_is_an_invariant_error(self, monkeypatch):
        # Unreachable with a correct scan; it must raise, not pass silently.
        # The top-level scan runs for real; the puncture's scan reports a violation.
        calls = []

        def scan(*args):
            calls.append(args)
            return hall_scan(*args) if len(calls) == 1 else 0b1

        monkeypatch.setattr("hallkernel.kernel.hall_scan", scan)
        with pytest.raises(RuntimeError, match="left a Hall violation"):
            extract_selection(M1)


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
    wide = FiniteMapping.from_dict({i: range(25) for i in range(25)})
    with pytest.raises(SizeCapError, match="exceeds the cap of 24"):
        entry(wide)


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=200)
def test_kernel_matches_oracle(f):
    assert alldifferent_kernel(f) == oracle_kernel(f)


@given(mappings(max_x=5, max_y=5))
@settings(max_examples=100)
def test_kernel_is_a_fixpoint(f):
    kern = alldifferent_kernel(f)
    assume(not kern.is_empty)
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


@given(mappings(max_x=5, max_y=5, min_image=1), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_any_in_block_picker_yields_a_selection(f, rng):
    got = extract_selection(
        f,
        choose_x=lambda labels: rng.choice(labels),
        choose_y=lambda x, candidates: rng.choice(candidates))
    if isinstance(got, HallViolation):
        assert enumerate_selections(f) == []
        return
    assert len(set(got.values)) == len(f.x_labels)
    assert all(y in f.image(x) for x, y in got.items())


def _selection_transcript(mapping):
    # Default picks, then recording pickers that take the last element and the
    # middle value, so both hooks see non-trivial argument sequences.
    log = []

    def pick_x(labels):
        log.append(("x", labels))
        return labels[-1]

    def pick_y(x, candidates):
        log.append(("y", x, candidates))
        return candidates[len(candidates) // 2]

    default = extract_selection(mapping)
    custom = extract_selection(mapping, choose_x=pick_x, choose_y=pick_y)
    return default, custom, log


#: sha256 of the selection transcripts over the corpus below, recorded with the
#: label-level puncture recursion (complement + re-partition per puncture) that
#: the bit-level recursion replaced.
SELECTION_TRANSCRIPT_SHA256 = (
    "479004b68adc2765ce8141ea2dd5507fae2dd7e17666d1218f8366773c854931")


def test_bit_level_selection_matches_label_level_transcript():
    rng = random.Random(20220201)
    corpus = list(all_mappings_3x3()) + [random_mapping(rng, max_x=8, max_y=8)
                                         for _ in range(2000)]
    digest = hashlib.sha256()
    for mapping in corpus:
        default, custom, log = _selection_transcript(mapping)
        if isinstance(default, HallViolation):
            assert custom == default
        else:
            members = enumerate_selections(mapping)
            assert default in members and custom in members
        digest.update(repr((default, custom, log)).encode())
    assert digest.hexdigest() == SELECTION_TRANSCRIPT_SHA256
