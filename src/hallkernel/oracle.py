"""Brute-force reference implementations used to validate everything else.

Deliberately naive: selections are enumerated by depth-first assignment with
nothing cleverer than a used-value set, and the Hall condition and the Hall
scan's blocks are found by trying every subset of the domain in turn.  The
module is independent of :mod:`.partition`'s scan, whose violation type is all
it takes from there, which minimizes the chance of a shared bug.
"""

from __future__ import annotations

from itertools import combinations

from .mappings import SELECTION_CAP, FiniteMapping, check_size_cap
from .partition import HallViolation
from .kernel import KernelMapping, Selection

SUBSET_SCAN_CAP = 20


def enumerate_selections(mapping: FiniteMapping, *, cap: int = SELECTION_CAP,
                         limit: int | None = None) -> list[Selection]:
    """Every alldifferent selection, in depth-first order over the domain.

    With ``limit``, the enumeration stops once it has found that many.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit {limit} is negative")
    xs = mapping.x_labels
    check_size_cap("selection enumeration", len(xs), cap)
    ordered_images = [mapping.y_labels_of(bits) for bits in mapping.image_bits]
    found: list[Selection] = []
    picks: list = []
    used: set = set()

    def descend(i: int) -> None:
        if len(found) == limit:
            return
        if i == len(xs):
            found.append(Selection(xs, tuple(picks)))
            return
        for y in ordered_images[i]:
            if y in used:
                continue
            used.add(y)
            picks.append(y)
            descend(i + 1)
            picks.pop()
            used.discard(y)

    descend(0)
    return found


def oracle_kernel(mapping: FiniteMapping) -> KernelMapping:
    """The kernel by definition: collect each element's values over all selections."""
    selections = enumerate_selections(mapping)
    images = tuple([frozenset(s.values[i] for s in selections)
                    for i in range(len(mapping.x_labels))])
    return KernelMapping(mapping, images)


def oracle_hall_check(mapping: FiniteMapping) -> HallViolation | None:
    """Scan all nonempty subsets for one whose image is too small.

    Returns the first violating subset in increasing-size, then lexicographic,
    order; ``None`` when the Hall condition holds.
    """
    images = mapping.images_by_label()
    check_size_cap("subset scan", len(images), SUBSET_SCAN_CAP)
    for size in range(1, len(images) + 1):
        for combo in combinations(images, size):
            union: set = set()
            for x in combo:
                union |= images[x]
            if len(union) < size:
                return HallViolation(frozenset(combo))
    return None


def oracle_hall_scan(image_bits):
    """What ``partition.hall_scan`` returns, found by plain enumeration.

    Each step takes the (size, lex)-first subset of the positions left whose
    image, less the values the blocks before it took, has no more values than
    members, or all of them if none has: the next block, or with the blocks
    before it the witness bitset when its image is smaller.  Returns
    ``(block_bits, residual_bits)`` or that witness.
    """
    positions = list(range(len(image_bits)))
    check_size_cap("subset scan", len(positions), SUBSET_SCAN_CAP)
    blocks: list[int] = []
    residuals: list[int] = []
    struck = 0
    while positions:
        subsets = (combo for size in range(1, len(positions) + 1)
                   for combo in combinations(positions, size))
        combo = next((c for c in subsets
                      if _image(image_bits, c, struck).bit_count() <= len(c)), positions)
        union = _image(image_bits, combo, struck)
        members = sum(1 << i for i in combo)
        if union.bit_count() < len(combo):
            return members | sum(blocks)  # the blocks are disjoint
        blocks.append(members)
        residuals.append(union)
        struck |= union
        positions = [i for i in positions if i not in combo]
    return tuple(blocks), tuple(residuals)


def _image(image_bits, positions, struck):
    union = 0
    for i in positions:
        union |= image_bits[i]
    return union & ~struck
