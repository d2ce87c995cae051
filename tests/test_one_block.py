"""The one-block answer against plain enumeration and the kernel's definition.

A scan step whose hit is everything left ends the scan there, and a kernel of
one block is the images themselves, the very object passed in.  These tests
compare :func:`hall_scan` with :func:`oracle_hall_scan`, and
:func:`kernel_bits` with the kernel by definition, on the inputs that take
those paths: every 3x3 mapping, every tuple of four images over four values,
seeded square mappings built as one block (critical or not), as a violation
of the whole domain, or as a chain that leaves one or two positions, and
every unit key a Sudoku solve hands the kernel.
"""

import hashlib
import random
from collections import Counter
from functools import cache
from itertools import product

import pytest

from hallkernel import FiniteMapping, partition, sudoku
from hallkernel.kernel import kernel_bits
from hallkernel.mappings import bit_indices
from hallkernel.oracle import oracle_hall_scan, oracle_kernel
from hallkernel.partition import hall_scan

from conftest import INKALA, all_mappings_3x3, blanked, canonical_grid_text


def kernel_by_definition(bits):
    """The values each position takes on some alldifferent selection, as bitsets.

    A depth-first search over (position, values used) that remembers which
    states complete; all zeros when no selection exists.
    """
    n = len(bits)

    @cache
    def completes(k, used):
        if k == n:
            return True
        free = bits[k] & ~used
        return any(completes(k + 1, used | 1 << v)
                   for v in range(free.bit_length()) if free >> v & 1)

    kernel = [0] * n
    reach = {0}
    for k, b in enumerate(bits):
        following = set()
        for used in reach:
            free = b & ~used
            for v in range(free.bit_length()):
                if free >> v & 1 and completes(k + 1, used | 1 << v):
                    kernel[k] |= 1 << v
                    following.add(used | 1 << v)
        reach = following
    return kernel


def assert_one_block_agrees(bits):
    """hall_scan as the oracle's enumeration, kernel_bits as the definition."""
    scan = hall_scan(bits)
    assert scan == oracle_hall_scan(bits)
    got, want = kernel_bits(bits), kernel_by_definition(bits)
    if isinstance(scan, int):
        assert got == scan and not any(want)
    else:
        assert list(got) == want
        if len(scan[0]) == 1:
            assert got is bits
    return scan


def relabel(rng, images, width):
    """``images`` over values ``range(width)`` as bitsets, both orders shuffled."""
    values = rng.sample(range(width), width)
    bits = [sum(1 << values[v] for v in img) for img in images]
    rng.shuffle(bits)
    return bits


def extras(rng, width, density):
    return {v for v in range(width) if rng.random() < density}


def one_block_critical(rng, n, density):
    """A cycle: position i holds values i and i + 1 mod n, plus extras below n."""
    return relabel(rng, [{i, (i + 1) % n} | extras(rng, n, density) for i in range(n)], n)


def one_block_noncritical(rng, n, density):
    """A path: position i holds values i and i + 1, plus extras below n + 1..n + 3."""
    width = n + rng.randint(1, 3)
    return relabel(rng, [{i, i + 1} | extras(rng, width, density) for i in range(n)], width)


def whole_domain_violation(rng, n, density):
    """A cycle over n - 1 values plus a position holding some of them."""
    m = n - 1
    images = [{i, (i + 1) % m} | extras(rng, m, density) for i in range(m)]
    images.append({rng.randrange(m)} | extras(rng, m, density))
    return relabel(rng, images, m)


def chain_then_rest(rng, n, density, rest):
    """A triangular chain of n - rest positions, peeled one by one, then
    ``rest`` positions each holding two fresh values, maybe a third, and
    some values of the chain."""
    k = n - rest
    fresh = range(k, k + 3)
    images = [set(range(i + 1)) for i in range(k)]
    for j in range(rest):
        images.append({k, k + 1} | {v for v in fresh if rng.random() < 0.5}
                      | extras(rng, k, density))
    return relabel(rng, images, k + 3)


@pytest.fixture
def steps(monkeypatch):
    """Counts of the scan steps that reach ``_first_fit_counted``, by outcome."""
    counts = Counter()
    counted = partition._first_fit_counted

    def wrapped(res):
        combo, union = counted(res)
        counts["whole rest" if combo is None else "hit"] += 1
        counts["at most two"] += len(res) <= 2
        return combo, union

    monkeypatch.setattr(partition, "_first_fit_counted", wrapped)
    return counts


def test_all_3x3_mappings(steps):
    shapes = Counter()
    for f in all_mappings_3x3():
        want = [f.y_bits(img) for img in oracle_kernel(f).images]
        bits = f.image_bits
        assert kernel_by_definition(bits) == want
        scan = assert_one_block_agrees(bits)
        shapes["witness" if isinstance(scan, int) else len(scan[0])] += 1
    assert shapes == {1: 34, 2: 63, 3: 150, "witness": 265}
    # Each mapping is scanned twice: once by hall_scan, once inside kernel_bits.
    assert steps == {"whole rest": 140, "hit": 60, "at most two": 72}


def test_all_4x4_image_tuples():
    # A witness W is the blocks taken before a position left with no value,
    # so its image is exactly one value short: |N(W)| = |W| - 1.  Otherwise
    # the selection is unique, as has_unique_selection reads it, exactly
    # when every residual image holds one value.
    witnesses = unique = 0
    for bits in product(range(16), repeat=4):
        scan = assert_one_block_agrees(bits)
        if isinstance(scan, int):
            witnesses += 1
            image = 0
            for i in bit_indices(scan):
                image |= bits[i]
            assert image.bit_count() == scan.bit_count() - 1
        else:
            single = all(r & (r - 1) == 0 for r in scan[1])
            assert single == all(k & (k - 1) == 0 for k in kernel_by_definition(bits))
            unique += single
    assert witnesses == 27713
    assert unique == 13032


@pytest.mark.parametrize("density", [0.1, 0.6])
def test_seeded_square_mappings(steps, density):
    rng = random.Random(22 + int(10 * density))
    shapes = Counter()
    for n in range(1, 10):
        for _ in range(6):
            for make, kind in ((one_block_critical, "critical"),
                               (one_block_noncritical, "non-critical")):
                scan = assert_one_block_agrees(make(rng, n, density))
                assert len(scan[0]) == 1
                critical = scan[1][0].bit_count() == n
                assert critical == (kind == "critical")
                shapes[kind] += 1
            if n >= 2:
                scan = assert_one_block_agrees(whole_domain_violation(rng, n, density))
                assert isinstance(scan, int)
                shapes["whole domain"] += scan == (1 << n) - 1
            for rest in (1, 2):
                if rest <= n:
                    scan = assert_one_block_agrees(chain_then_rest(rng, n, density, rest))
                    assert scan[0][-1].bit_count() == rest
    assert shapes["critical"] == shapes["non-critical"] == 54
    assert shapes["whole domain"] == 48
    assert steps["whole rest"] > 100 and steps["at most two"] > 60


def sudoku_unit_keys():
    """Every key ``kernel_bits`` gets while solving Inkala's grid, the empty
    grid and 10 seeded blankings of 45-64 cells, in call order."""
    rng = random.Random(22)
    text = canonical_grid_text()
    texts = [INKALA, "." * 81]
    texts += [blanked(text, rng.sample(sudoku.ALL_CELLS, rng.randint(45, 64)))
              for _ in range(10)]
    keys = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sudoku, "kernel_bits", lambda bits: keys.append(bits) or kernel_bits(bits))
        for t in texts:
            sudoku.solve(sudoku.parse_grid(t))
    return keys


#: sha256 of ``repr(sudoku_unit_keys())``: it pins the visit order and the
#: units a search branch re-propagates from, with every kernel but an
#: unchanged unit's computed at its visit.
UNIT_KEYS_SHA256 = "242d2054827ebbe2393da409d6116f16136b4ed10f6499d6f27ecc783c2595cd"

#: sha256 of ``repr`` of the distinct keys of ``sudoku_unit_keys()`` in
#: first-visit order, which no memo moves: the visit order alone.
DISTINCT_UNIT_KEYS_SHA256 = "18b5ba69b2fc6a2e2ed5f782d9b52aedbb1e86ff078c195e33ed80e78ab2bafb"


def test_sudoku_unit_keys(steps):
    keys = sudoku_unit_keys()
    assert len(keys) == 1585
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == UNIT_KEYS_SHA256
    distinct = list(dict.fromkeys(keys))
    assert len(distinct) == 1525
    assert hashlib.sha256(repr(distinct).encode()).hexdigest() == DISTINCT_UNIT_KEYS_SHA256
    shapes = Counter()
    for key in distinct:
        scan = assert_one_block_agrees(key)
        shapes["witness" if isinstance(scan, int) else len(scan[0]) == 1] += 1
    assert shapes == {True: 1207, False: 314, "witness": 4}


def test_unchanged_unit_keys_hold_no_single():
    # The keys a Sudoku visit ends at the memo for: two or more masks whose
    # kernel is the key itself.  No mask has one candidate, and every value
    # lies on a selection, by the definition and, up to 7 cells, by the
    # oracle's enumeration.
    marked = [key for key in dict.fromkeys(sudoku_unit_keys())
              if kernel_bits(key) is key and len(key) > 1]
    assert len(marked) == 1203
    for key in marked:
        assert all(m & (m - 1) for m in key)
        assert kernel_by_definition(key) == list(key)
        if len(key) <= 7:
            f = FiniteMapping.from_dict({k: bit_indices(m) for k, m in enumerate(key)},
                                        y_order=range(10))
            assert tuple([f.y_bits(img) for img in oracle_kernel(f).images]) == key
    assert sum(len(key) <= 7 for key in marked) > 900
