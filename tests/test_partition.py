import random
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallkernel import (
    ExitKind,
    FiniteMapping,
    HallPartition,
    HallViolation,
    SizeCapError,
    alldifferent_kernel,
    check_hall,
    compute_hall_partition,
    extract_selection,
    image_of_set,
    is_critical,
    partitions_equal_up_to_renumbering,
    verify_partition,
)
from hallkernel import partition, sudoku
from hallkernel.cli import main
from hallkernel.oracle import oracle_hall_scan
from hallkernel.partition import hall_scan

from conftest import (
    INKALA, all_mappings_3x3, mappings, random_mapping, relabelled, stdin_of)

M1 = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})
PERM4 = FiniteMapping.from_dict({i: {i} for i in (1, 2, 3, 4)})


class TestComputeHallPartition:
    def test_two_blocks(self):
        got = compute_hall_partition(M1)
        assert got.blocks == (frozenset({1, 2}), frozenset({3}))
        assert got.residual_images == (frozenset({1, 2}), frozenset({3}))
        assert got.exit_kind is ExitKind.LAST_BLOCK_CRITICAL

    def test_single_noncritical_block(self):
        f = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2, 3}})
        got = compute_hall_partition(f)
        assert got.blocks == (frozenset({1, 2}),)
        assert got.residual_images == (frozenset({1, 2, 3}),)
        assert got.exit_kind is ExitKind.LAST_BLOCK_NONCRITICAL
        assert len(image_of_set(f, f.x_labels)) == 3 > len(f.x_labels)

    def test_violation_witness_joins_blocks(self):
        got = compute_hall_partition(FiniteMapping.from_dict({1: {1}, 2: {1}}))
        assert got == HallViolation(witness=frozenset({1, 2}))

    def test_domain_cap(self):
        # Only a step the matching leaves to the walk is capped: K25,24.
        wide = FiniteMapping.from_dict({i: range(24) for i in range(25)})
        with pytest.raises(SizeCapError):
            compute_hall_partition(wide)
        singletons = FiniteMapping.from_dict({i: {i} for i in range(25)})
        assert compute_hall_partition(singletons) == HallPartition(
            tuple(frozenset({i}) for i in range(25)),
            tuple(frozenset({i}) for i in range(25)))

    def test_the_blocks_and_residual_images_are_the_record(self):
        # The exit kind is no field: a partition rebuilt from its two fields
        # equals it and reads the same exit kind off its last block.
        rng = random.Random(38)
        corpus = [*all_mappings_3x3(), *(random_mapping(rng) for _ in range(300))]
        kinds = Counter()
        for f in corpus:
            p = compute_hall_partition(f)
            if isinstance(p, HallPartition):
                rebuilt = HallPartition(p.blocks, p.residual_images)
                assert rebuilt == p and rebuilt.exit_kind is p.exit_kind
                kinds[p.exit_kind] += 1
        assert kinds.keys() == set(ExitKind)
        assert HallPartition.__slots__ == ("blocks", "residual_images")
        with pytest.raises(AttributeError):
            compute_hall_partition(M1).exit_kind = ExitKind.LAST_BLOCK_NONCRITICAL

    def test_exit_kind_is_read_off_the_last_block(self):
        # The blocks before the last play no part, valid or not.
        wide = HallPartition((frozenset({1}), frozenset({2})),
                             (frozenset({1, 2}), frozenset({3, 4})))
        assert wide.exit_kind is ExitKind.LAST_BLOCK_NONCRITICAL
        tight = HallPartition(wide.blocks, (frozenset(), frozenset({3})))
        assert tight.exit_kind is ExitKind.LAST_BLOCK_CRITICAL

    def test_pruning_changes_nothing(self):
        for f in (M1, PERM4, FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2, 3}})):
            assert_cut_agrees(f.image_bits, f.full_x_bits)


def assert_cut_agrees(image_bits, remaining, struck=0):
    """The scan of the positions in ``remaining``, values in ``struck`` taken,
    returns exactly what the oracle's plain enumeration returns."""
    images = [b & ~struck for i, b in enumerate(image_bits) if remaining >> i & 1]
    assert hall_scan(images) == oracle_hall_scan(images)


def random_masks(rng, n, width):
    """A nonzero ``remaining`` over ``n`` positions and a ``struck`` over ``width`` values."""
    return rng.randint(1, (1 << n) - 1), rng.randint(0, (1 << width) - 1)


class TestPrunedScan:
    def test_all_3x3_mappings(self):
        rng = random.Random(3)
        for f in all_mappings_3x3():
            assert_cut_agrees(f.image_bits, f.full_x_bits)
            assert_cut_agrees(f.image_bits, *random_masks(rng, 3, 3))
            assert_cut_agrees(f.image_bits, 0, rng.randint(0, 7))

    def test_path_and_triangular_families(self):
        rng = random.Random(12)
        for n in range(1, 13):
            path = [0b11 << i for i in range(n)]
            triangular = [(1 << (i + 1)) - 1 for i in range(n)]
            shuffled = rng.sample(triangular, n)
            for bits in (path, triangular, shuffled):
                assert_cut_agrees(bits, (1 << n) - 1)
                for _ in range(3):
                    assert_cut_agrees(bits, *random_masks(rng, n, n + 1))

    def test_seeded_random_mappings(self):
        rng = random.Random(20261018)
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(60):
                nx, ny = rng.randint(1, 10), rng.randint(1, 10)
                bits = [sum(1 << y for y in range(ny) if rng.random() < density)
                        for _ in range(nx)]
                assert_cut_agrees(bits, (1 << nx) - 1)
                for _ in range(3):
                    assert_cut_agrees(bits, *random_masks(rng, nx, ny))


@st.composite
def scan_arguments(draw):
    """Image bitsets over up to 8 values, with ``remaining`` and ``struck`` masks."""
    bits = draw(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    remaining = draw(st.integers(0, (1 << len(bits)) - 1))
    return bits, remaining, draw(st.integers(0, 255))


@given(scan_arguments())
@settings(max_examples=300)
def test_cut_agrees_with_plain_enumeration(arguments):
    assert_cut_agrees(*arguments)


def relabelled_chain(rng, n):
    """The triangular chain on ``n`` positions and values, both shuffled.

    The k-th position of the chain holds the chain's first k + 1 values, so
    every step of the scan peels one position with one value.
    """
    chain = [1 << v for v in rng.sample(range(n), n)]
    return rng.sample([sum(chain[:k + 1]) for k in range(n)], n)


def some_of(rng, bits):
    """A random subset of the values in ``bits``."""
    return sum([1 << v for v in range(bits.bit_length())
                if bits >> v & 1 and rng.random() < 0.5])


class TestPeel:
    """Size-1 blocks peeled in place give exactly what plain enumeration gives."""

    def test_relabelled_chains(self):
        rng = random.Random(21)
        for n in range(13, 21):
            for _ in range(3):
                bits = relabelled_chain(rng, n)
                got = hall_scan(bits)
                assert got == oracle_hall_scan(bits)
                assert all(b.bit_count() == 1 for b in got[0] + got[1])

    def test_blocks_spliced_between_the_peels(self):
        # A block of ``size`` positions on ``size`` fresh values after the
        # chain's first t values; later chain positions see some fresh values.
        rng = random.Random(22)
        for n in range(13, 18):
            for size in (2, 3):
                for _ in range(3):
                    values = [1 << v for v in rng.sample(range(n + size), n + size)]
                    chain, fresh = values[:n], sum(values[n:])
                    t = rng.randrange(1, n)
                    bits = [sum(chain[:k + 1]) | (some_of(rng, fresh) if k >= t else 0)
                            for k in range(n)]
                    bits += [fresh | some_of(rng, sum(chain[:t])) for _ in range(size)]
                    order = rng.sample(range(n + size), n + size)
                    bits = [bits[i] for i in order]
                    got = hall_scan(bits)
                    assert got == oracle_hall_scan(bits)
                    block = sum([1 << p for p, i in enumerate(order) if i >= n])
                    assert block in got[0]

    def test_chains_that_run_out_of_values(self):
        # Position t of the chain sees only values of the positions before it.
        rng = random.Random(23)
        for n in range(13, 21):
            for _ in range(3):
                chain = [1 << v for v in rng.sample(range(n), n)]
                bits = [sum(chain[:k + 1]) for k in range(n)]
                t = rng.randrange(1, n)
                bits[t] = some_of(rng, bits[t - 1]) or chain[t - 1]
                bits = rng.sample(bits, n)
                got = hall_scan(bits)
                assert isinstance(got, int) and got == oracle_hall_scan(bits)
                # The blocks taken, one value each, and the position left with none.
                image = reduce(or_, [b for i, b in enumerate(bits) if got >> i & 1])
                assert image.bit_count() == got.bit_count() - 1

    def test_chain_runs_no_walk(self, monkeypatch):
        calls = []
        for name in ("_first_fit_pruned", "_first_fit_counted", "_matching_completion"):
            monkeypatch.setattr(partition, name,
                                lambda *args, name=name: calls.append(name))
        blocks, _ = hall_scan(relabelled_chain(random.Random(24), 20))
        assert calls == []
        assert sorted(blocks) == [1 << i for i in range(20)]


@contextmanager
def completion_everywhere():
    """Send every step without a size-1 hit to the matching completion.

    Yields ``{"calls": ..., "uncovered": ...}``, counting the completions and
    those whose matching left a position uncovered.  The oracle's plain
    enumeration reads neither patched name, so it stays the reference.
    """
    counts = {"calls": 0, "uncovered": 0}
    complete = partition._matching_completion

    def counted(indices, res):
        result = complete(indices, res)
        counts["calls"] += 1
        counts["uncovered"] += result is None
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "MATCHING_CUTOFF", 0)
        mp.setattr(partition, "_matching_completion", counted)
        yield counts


def path_bits(n):
    return [0b11 << i for i in range(n)]


def cycle_bits(n):
    return [1 << i | 1 << (i + 1) % n for i in range(n)]


def triangular_bits(n):
    return [(1 << (i + 1)) - 1 for i in range(n)]


def block_dag_bits(rng, n):
    """Blocks with a perfect matching inside, some seeing values of earlier blocks.

    Every position keeps its own diagonal value, so the Hall condition holds;
    a few positions get a value of their own beyond the diagonal, which makes
    whatever reaches them non-critical.  Positions come out shuffled.
    """
    bits = []
    start = 0
    spare = n
    while start < n:
        size = min(rng.randint(1, 4), n - start)
        for i in range(size):
            b = 1 << (start + i)
            for j in range(start, start + size):
                if rng.random() < 0.6:
                    b |= 1 << j
            for j in range(start):
                if rng.random() < 0.15:
                    b |= 1 << j
            if rng.random() < 0.05:
                b |= 1 << spare
                spare += 1
            bits.append(b)
        start += size
    rng.shuffle(bits)
    return bits


def unit_like_bits(rng, m):
    """``m`` images of 2 to 5 values each over ``m`` to ``m + 3`` values."""
    width = m + rng.randint(0, 3)
    return [sum(1 << y for y in rng.sample(range(width), rng.randint(2, min(5, width))))
            for _ in range(m)]


def ruled_out(res, size):
    """Which count shows that no ``size`` of the images are tight, if one does.

    ``"positions"``: fewer than ``size`` images have at most ``size`` values.
    ``"values"``: at most three images are left out, and fewer than
    ``u - size`` of the ``u`` values are held by no more images than that.
    """
    if sum(b.bit_count() <= size for b in res) < size:
        return "positions"
    union = 0
    for b in res:
        union |= b
    rest = len(res) - size
    holders = [sum(b >> y & 1 for b in res) for y in range(union.bit_length())
               if union >> y & 1]
    if rest <= 3 and sum(h <= rest for h in holders) < len(holders) - size:
        return "values"
    return None


class TestCountedSizes:
    """The scan walks no size the counts rule out, and those sizes hold no hit."""

    def test_unit_like_steps(self, monkeypatch):
        steps, walked = [], []
        counted = partition._first_fit_counted
        fit = partition._first_fit_pruned
        monkeypatch.setattr(partition, "_first_fit_counted",
                            lambda res: steps.append(res) or counted(res))
        monkeypatch.setattr(partition, "_first_fit_pruned",
                            lambda res, size: walked.append((res, size)) or fit(res, size))
        rng = random.Random(13)
        for m in range(2, 10):
            for _ in range(150):
                bits = unit_like_bits(rng, m)
                assert_cut_agrees(bits, (1 << m) - 1)
                assert_cut_agrees(bits, *random_masks(rng, m, m + 3))
        skipped = Counter()
        for res in steps:
            # A step whose size-1 pass missed: whatever the counts rule out holds no hit.
            for s in range(2, len(res)):
                reason = ruled_out(res, s)
                skipped[reason] += 1
                if reason:
                    assert all(reduce(or_, combo).bit_count() > s
                               for combo in combinations(res, s))
        for res, size in walked:
            # Size 1 is peeled inline, the last size is read off the union, and
            # no ruled-out size is walked.
            assert 1 < size < len(res) and ruled_out(res, size) is None
        assert skipped["positions"] > 500 and skipped["values"] > 500
        assert skipped[None] > 2000

    def test_counted_walks_on_inkala(self, monkeypatch):
        # Size 1 is peeled without a walk.
        calls = []
        fit = partition._first_fit_pruned
        monkeypatch.setattr(partition, "_first_fit_pruned",
                            lambda res, size: calls.append(size) or fit(res, size))
        sudoku.solve(sudoku.parse_grid(INKALA))
        assert len(calls) == 1069


def dense_bits(rng, n):
    density = rng.uniform(0.5, 0.9)
    return [sum(1 << y for y in range(n + rng.randint(0, 2)) if rng.random() < density)
            for _ in range(n)]


def violating_bits(rng, n):
    """A block DAG over ``n - 3`` positions plus three positions on two fresh values.

    Some of the other positions see the fresh values too.
    """
    fresh = (0b01 << 2 * n, 0b10 << 2 * n)
    bits = [b | (rng.choice(fresh) if rng.random() < 0.2 else 0)
            for b in block_dag_bits(rng, n - 3)]
    bits += [fresh[0] | fresh[1]] * 3
    rng.shuffle(bits)
    return bits


class TestMatchingCompletion:
    """The completion gives exactly what plain enumeration gives."""

    def test_all_3x3_mappings(self):
        rng = random.Random(512)
        with completion_everywhere() as counts:
            for f in all_mappings_3x3():
                assert_cut_agrees(f.image_bits, f.full_x_bits)
                for _ in range(2):
                    assert_cut_agrees(f.image_bits, *random_masks(rng, 3, 3))
        assert counts["calls"] > 200 and counts["uncovered"] > 0

    def test_hall_satisfying_families(self):
        rng = random.Random(14)
        with completion_everywhere() as counts:
            for n in range(1, 15):
                shuffled = rng.sample(triangular_bits(n), n)
                corpus = [path_bits(n), cycle_bits(n), triangular_bits(n), shuffled,
                          *(block_dag_bits(rng, n) for _ in range(6))]
                for bits in corpus:
                    assert not isinstance(hall_scan(bits), int)
                # Dense images mostly, not always, satisfy the Hall condition.
                for bits in corpus + [dense_bits(rng, n) for _ in range(4)]:
                    assert_cut_agrees(bits, (1 << n) - 1)
                    assert_cut_agrees(bits, *random_masks(rng, n, 2 * n + 2))
        assert counts["calls"] > 250

    def test_violating_mappings(self):
        rng = random.Random(15)
        with completion_everywhere() as counts:
            for n in range(4, 15):
                for _ in range(4):
                    bits = violating_bits(rng, n)
                    assert isinstance(hall_scan(bits), int)
                    assert_cut_agrees(bits, (1 << n) - 1)
                    assert_cut_agrees(bits, *random_masks(rng, n, 2 * n + 2))
                sparse = [sum(1 << y for y in range(n) if rng.random() < 0.2)
                          for _ in range(n)]
                assert_cut_agrees(sparse, (1 << n) - 1)
        assert counts["uncovered"] > 40

    def test_size_one_hits_stay_on_the_scan(self):
        with completion_everywhere() as counts:
            assert_cut_agrees(triangular_bits(14), (1 << 14) - 1)
        assert counts["calls"] == 0

    def test_one_uncovered_matching_per_scan(self):
        # A tight set taken out of a mapping without a complete matching
        # leaves one without; each large step tries the matching, and each
        # leaves a position uncovered.
        bits = [0b11, 0b11, *(0b11100 for _ in range(4))]
        with completion_everywhere() as counts:
            assert hall_scan(bits) == 0b111111
        assert counts == {"calls": 2, "uncovered": 2}


@given(st.lists(st.integers(0, 1023), min_size=1, max_size=10),
       st.integers(0, 1023), st.data())
@settings(max_examples=300)
def test_completion_agrees_with_plain_enumeration(bits, struck, data):
    remaining = data.draw(st.integers(1, (1 << len(bits)) - 1))
    with completion_everywhere():
        assert_cut_agrees(bits, remaining, struck)


class TestWhenTheCompletionRuns:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        complete = partition._matching_completion
        monkeypatch.setattr(partition, "_matching_completion",
                            lambda indices, res: calls.append(len(indices))
                            or complete(indices, res))
        return calls

    def test_only_over_nine_positions(self, calls):
        compute_hall_partition(FiniteMapping.from_dict(
            {i: {i, i + 1} for i in range(9)}))
        assert calls == []
        compute_hall_partition(FiniteMapping.from_dict(
            {i: {i, i + 1} for i in range(10)}))
        assert calls == [10]

    def test_never_in_sudoku(self, calls, monkeypatch):
        kernel_calls = []
        kernel_bits = sudoku.kernel_bits
        monkeypatch.setattr(sudoku, "kernel_bits",
                            lambda bits: kernel_calls.append(bits) or kernel_bits(bits))
        sudoku.solve(sudoku.parse_grid(INKALA))
        assert len(kernel_calls) == 745
        assert calls == []

    def test_path_at_the_cap(self, calls, capsys, monkeypatch):
        n = partition.ENUMERATION_CAP
        f = FiniteMapping.from_dict({i: {i, i + 1} for i in range(1, n + 1)})
        got = compute_hall_partition(f)
        assert got == HallPartition((frozenset(range(1, n + 1)),),
                                    (frozenset(range(1, n + 2)),))
        assert alldifferent_kernel(f).images == tuple(
            frozenset({i, i + 1}) for i in range(1, n + 1))
        assert extract_selection(f).values == tuple(range(1, n + 1))
        assert calls[0] == n
        text = "".join(f"{i} : {i} {i + 1}\n" for i in range(1, n + 1))
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        assert main(["partition"]) == 0
        block = ", ".join(map(str, range(1, n + 1)))
        assert capsys.readouterr().out == (
            f"block 1: {{{block}}} -> {{{block}, {n + 1}}}\n"
            "exit: LastBlockNonCritical\n")


class TestCheckHall:
    def test_permutation_ok(self):
        assert check_hall(PERM4) is None

    def test_pigeonhole(self):
        assert check_hall(FiniteMapping.from_dict({1: {1}, 2: {1}})).witness == {1, 2}

    def test_empty_image_witness_contains_element(self):
        f = FiniteMapping.from_dict({1: {1}, 2: (), 3: {2, 3}}, y_order=(1, 2, 3))
        violation = check_hall(f)
        assert 2 in violation.witness

    def test_same_witness_as_the_partition(self):
        rng = random.Random(11)
        corpus = [*all_mappings_3x3(), *(random_mapping(rng) for _ in range(300))]
        for f in corpus:
            result = compute_hall_partition(f)
            expected = result if isinstance(result, HallViolation) else None
            assert check_hall(f) == expected


class TestVerifyPartition:
    def test_accepts_computed_partitions(self):
        for f in (M1, PERM4, FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2, 3}})):
            assert verify_partition(f, compute_hall_partition(f))

    def test_rejects_wrong_block_order(self):
        bogus = HallPartition(
            blocks=(frozenset({3}), frozenset({1, 2})),
            residual_images=(frozenset({1, 2, 3}), frozenset()))
        assert not verify_partition(M1, bogus)

    def test_rejects_reducible_blocks(self):
        bogus = HallPartition(
            blocks=(frozenset({1}), frozenset({2}), frozenset({3})),
            residual_images=(frozenset({1, 2}), frozenset({1, 2}), frozenset({3})))
        assert not verify_partition(M1, bogus)

    def test_rejects_a_coarser_block(self):
        # One block {1, 2} passes every clause but non-reducibility: {1} is
        # critical inside it, and the Hall partition has {1} and {2}.
        f = FiniteMapping.from_dict({1: {1}, 2: {2}})
        coarse = HallPartition((frozenset({1, 2}),), (frozenset({1, 2}),))
        assert not verify_partition(f, coarse)
        assert verify_partition(f, compute_hall_partition(f))

    def test_rejects_non_partitions(self):
        good = compute_hall_partition(M1)
        missing = HallPartition(good.blocks[:1], good.residual_images[:1])
        assert not verify_partition(M1, missing)
        overlapping = HallPartition(
            blocks=(frozenset({1, 2}), frozenset({2, 3})),
            residual_images=good.residual_images)
        assert not verify_partition(M1, overlapping)
        pigeon = FiniteMapping.from_dict({1: {1}, 2: {1}})
        assert not verify_partition(pigeon, compute_hall_partition(pigeon))

    def test_rejects_more_residuals_than_blocks(self):
        good = compute_hall_partition(M1)
        extra = HallPartition(good.blocks, good.residual_images + (frozenset(),))
        assert not verify_partition(M1, extra)

    def test_rejects_an_empty_block(self):
        good = compute_hall_partition(M1)
        padded = HallPartition((frozenset(),) + good.blocks,
                               (frozenset(),) + good.residual_images)
        assert not verify_partition(M1, padded)

    def test_rejects_an_element_with_an_empty_residual_image(self):
        # {1} is critical, and it strikes the only value 2 can take.
        pigeon = FiniteMapping.from_dict({1: {1}, 2: {1}})
        split = HallPartition((frozenset({1}), frozenset({2})),
                              (frozenset({1}), frozenset()))
        assert not verify_partition(pigeon, split)

    def test_accepts_valid_alternative_orderings(self):
        # Independent blocks (disjoint images) may appear in either order.
        f = FiniteMapping.from_dict(
            {1: {1, 2}, 2: {1, 2}, 3: {3, 4}, 4: {3, 4}})
        found = compute_hall_partition(f)
        swapped = HallPartition(found.blocks[::-1], found.residual_images[::-1])
        assert verify_partition(f, found)
        assert verify_partition(f, swapped)
        assert partitions_equal_up_to_renumbering(found, swapped)

    def test_rejects_tampered_residuals(self):
        good = compute_hall_partition(M1)
        wrong_residual = HallPartition(good.blocks, (frozenset({1}), frozenset({3})))
        assert not verify_partition(M1, wrong_residual)


class TestEqualUpToRenumbering:
    def test_reflexive(self):
        p = compute_hall_partition(M1)
        assert partitions_equal_up_to_renumbering(p, p)

    def test_relabelled_runs_agree(self):
        rng = random.Random(42)
        for _ in range(25):
            f = random_mapping(rng, max_x=6, max_y=6)
            first = compute_hall_partition(f)
            if isinstance(first, HallViolation):
                continue
            second = compute_hall_partition(relabelled(f, rng))
            assert partitions_equal_up_to_renumbering(first, second)

    def test_different_families_differ(self):
        assert not partitions_equal_up_to_renumbering(
            compute_hall_partition(M1), compute_hall_partition(PERM4))

    def test_a_violation_equals_nothing(self):
        # compute_hall_partition returns a violation as a value, not an error.
        violation = compute_hall_partition(FiniteMapping.from_dict({1: {1}, 2: {1}}))
        found = compute_hall_partition(M1)
        for first, second in ((violation, violation), (violation, found),
                              (found, violation)):
            assert not partitions_equal_up_to_renumbering(first, second)


@given(mappings(max_x=6, max_y=6))
@settings(max_examples=150)
def test_violation_witnesses_are_genuine(f):
    got = compute_hall_partition(f)
    if isinstance(got, HallViolation):
        assert len(image_of_set(f, got.witness)) < len(got.witness)


@given(st.lists(st.integers(0, (1 << 14) - 1), min_size=1, max_size=14))
@settings(max_examples=200)
def test_witness_image_is_one_short(bits):
    # The scan's witness is the blocks taken plus one position left empty.
    witness = hall_scan(bits)
    if isinstance(witness, int):
        image = reduce(or_, [b for i, b in enumerate(bits) if witness >> i & 1])
        assert image.bit_count() == witness.bit_count() - 1


@given(mappings(max_x=6, max_y=6))
@settings(max_examples=150)
def test_exit_kind_matches_total_image_size(f):
    got = compute_hall_partition(f)
    if isinstance(got, HallViolation):
        return
    square = len(image_of_set(f, f.x_labels)) == len(f.x_labels)
    assert (got.exit_kind is ExitKind.LAST_BLOCK_CRITICAL) == square


@given(mappings(max_x=6, max_y=6))
@settings(max_examples=100)
def test_prefix_unions_are_critical(f):
    got = compute_hall_partition(f)
    if isinstance(got, HallViolation):
        return
    prefix: set = set()
    for block in got.blocks[:-1]:
        prefix |= block
        assert is_critical(f, prefix)
