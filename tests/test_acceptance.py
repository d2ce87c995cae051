"""Acceptance suite: oracle- and property-based checks at desk scale.

One test per criterion; each prints a ``criterion N PASS/FAIL`` line (run
with ``pytest -s`` to see them stream).  Tolerances are exact (zero
discrepancies) and the stated wall-clock budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from hallkernel import (
    ExitKind,
    HallPartition,
    HallViolation,
    alldifferent_kernel,
    check_hall,
    compute_hall_partition,
    has_unique_selection,
    image_of_set,
    is_alldifferent,
    punctured_mapping,
    verify_partition,
)
from hallkernel.oracle import (
    enumerate_selections,
    oracle_hall_check,
    oracle_hall_scan,
    oracle_kernel,
)
from hallkernel.partition import hall_scan
from hallkernel.sudoku import (
    ALL_CELLS,
    ALL_UNITS,
    ROWS,
    parse_grid,
    propagate,
    unit_mapping,
)

from conftest import all_mappings_3x3, blanked, canonical_grid_text, random_mapping, relabelled
from test_sudoku import naked_pair_text


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d} PASS: {description} ({elapsed:.2f}s)")


def subset_image_bits(mapping):
    # img[s] = image bitset of the domain subset s, for every s at once.
    n = len(mapping.x_labels)
    img = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        img[s] = img[s ^ low] | mapping.image_bits[low.bit_length() - 1]
    return img


def hall_instances(rng, count, max_x=7, max_y=7):
    found = []
    while len(found) < count:
        f = random_mapping(rng, max_x=max_x, max_y=max_y)
        if check_hall(f) is None:
            found.append(f)
    return found


def test_criterion_01_exhaustive_marriage_equivalence():
    with criterion(1, "marriage-theorem equivalence over all 512 3x3 mappings"):
        started = time.monotonic()
        for f in all_mappings_3x3():
            partitioned = isinstance(compute_hall_partition(f), HallPartition)
            assert partitioned == (check_hall(f) is None)
            assert partitioned == (oracle_hall_check(f) is None)
            assert partitioned == bool(enumerate_selections(f))
        assert time.monotonic() - started < 5.0


def test_criterion_02_kernel_oracle_equivalence():
    with criterion(2, "kernel equals oracle kernel on 512 + 10000 instances"):
        started = time.monotonic()
        for f in all_mappings_3x3():
            assert alldifferent_kernel(f) == oracle_kernel(f)
        rng = random.Random(20260810)
        for _ in range(10_000):
            f = random_mapping(rng)
            assert alldifferent_kernel(f) == oracle_kernel(f)
        assert time.monotonic() - started < 60.0


def test_criterion_03_partition_uniqueness_under_relabelling():
    with criterion(3, "block families survive 20 relabelings x 1000 instances"):
        started = time.monotonic()
        rng = random.Random(31337)
        for f in hall_instances(rng, 1000):
            family = frozenset(compute_hall_partition(f).blocks)
            for _ in range(20):
                shuffled = relabelled(f, rng)
                assert frozenset(compute_hall_partition(shuffled).blocks) == family
        assert time.monotonic() - started < 60.0


def test_criterion_04_partition_structural_invariants():
    with criterion(4, "residual disjointness, image count, prefix criticality, "
                      "exit kind, validator"):
        rng = random.Random(424242)
        instances = list(all_mappings_3x3())
        instances.extend(random_mapping(rng) for _ in range(2000))
        for f in instances:
            got = compute_hall_partition(f)
            if isinstance(got, HallViolation):
                continue
            for first, second in combinations(got.residual_images, 2):
                assert not first & second
            total_image = len(image_of_set(f, f.x_labels))
            assert sum(len(r) for r in got.residual_images) == total_image
            prefix = set()
            for block in got.blocks[:-1]:
                prefix |= block
                assert len(image_of_set(f, prefix)) == len(prefix)
            square = total_image == len(f.x_labels)
            assert (got.exit_kind is ExitKind.LAST_BLOCK_CRITICAL) == square
            assert verify_partition(f, got)


def test_criterion_05_unicity_criterion():
    with criterion(5, "unique selection iff block count equals image count"):
        rng = random.Random(20260810)
        instances = list(all_mappings_3x3())
        instances.extend(random_mapping(rng) for _ in range(10_000))
        for f in instances:
            count = len(enumerate_selections(f))
            unique = has_unique_selection(f)
            assert unique == (count == 1)
            if unique:
                partition = compute_hall_partition(f)
                assert len(partition.blocks) == len(f.x_labels)
                assert all(len(img) == 1
                           for img in alldifferent_kernel(f).images)


def test_criterion_06_critical_set_lattice():
    with criterion(6, "intersection/union counting identities for critical pairs"):
        rng = random.Random(606060)
        for f in hall_instances(rng, 1000):
            img = subset_image_bits(f)
            criticals = [s for s in range(1, len(img))
                         if img[s].bit_count() == s.bit_count()]
            for v, w in combinations(criticals, 2):
                inter, union = v & w, v | w
                assert inter.bit_count() == img[inter].bit_count()
                assert inter.bit_count() == (img[v] & img[w]).bit_count()
                assert union.bit_count() == img[union].bit_count()
                assert union.bit_count() == (img[v] | img[w]).bit_count()


def test_criterion_07_alldifferent_predicate_equivalences():
    with criterion(7, "alldifferent iff clean critical splits iff puncture checks"):
        for f in all_mappings_3x3():
            direct = is_alldifferent(f)
            has_selection = bool(enumerate_selections(f))
            img = subset_image_bits(f)
            full = f.full_x_bits
            clean = has_selection and all(
                not (img[s] & img[full ^ s])
                for s in range(1, full + 1)
                if img[s].bit_count() == s.bit_count())
            punctured = all(b != 0 for b in f.image_bits) and all(
                check_hall(punctured_mapping(f, x, y)) is None
                for x in f.x_labels for y in f.image(x))
            assert direct == clean == punctured


def test_criterion_08_pruning_soundness():
    with criterion(8, "the scan agrees with the oracle's plain enumeration "
                      "on 1000 instances"):
        rng = random.Random(888)
        for _ in range(1000):
            f = random_mapping(rng, max_x=6, max_y=6)
            assert hall_scan(f.image_bits) == oracle_hall_scan(f.image_bits)


def test_criterion_09_sudoku_soundness():
    with criterion(9, "propagation never deletes true values; fixpoints are "
                      "idempotent and Hall-consistent"):
        started = time.monotonic()
        text = canonical_grid_text()
        truth = {cell: int(text[(cell[0] - 1) * 9 + cell[1] - 1])
                 for cell in ALL_CELLS}
        rng = random.Random(999)
        for blank_count in (20, 40, 55):
            for _ in range(100):
                cells = rng.sample(ALL_CELLS, blank_count)
                result = propagate(parse_grid(blanked(text, cells)))
                for cell in cells:
                    if cell in result.givens:
                        assert result.givens[cell] == truth[cell]
                    else:
                        assert truth[cell] in result.candidates[cell]
                assert propagate(result) == result
                for unit in ALL_UNITS:
                    if any(c in result.candidates for c in unit.cells):
                        assert check_hall(unit_mapping(result, unit)) is None
        assert time.monotonic() - started < 30.0


def test_criterion_10_sudoku_naked_pair_deduction():
    with criterion(10, "naked pair {1,2},{1,2},{1,2,3} forces the 3 in one sweep"):
        grid = parse_grid(naked_pair_text())
        row = unit_mapping(grid, ROWS[0])
        assert row.images_by_label() == {
            (1, 7): {1, 2}, (1, 8): {1, 2}, (1, 9): {1, 2, 3}}
        kern = alldifferent_kernel(row)
        assert kern.images_by_label() == {
            (1, 7): {1, 2}, (1, 8): {1, 2}, (1, 9): {3}}
        swept = propagate(grid, max_sweeps=1)
        assert swept.givens[(1, 9)] == 3
