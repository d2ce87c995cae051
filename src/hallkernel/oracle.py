"""The paper's definitions, and brute-force references for everything else.

The definitions work on labels: the image of a domain subset, the residual
mapping, *critical* sets, whose image is exactly as large as the set, and
*non-reducible* sets, with no proper critical subset; the Hall partition is
the chain of those, re-checked clause by clause.  The references are naive:
selections are enumerated by depth-first assignment with nothing cleverer
than a used-value set, and the Hall condition and the Hall scan's blocks are
found by trying every subset of the domain in turn.  The module shares no
code with :mod:`.partition`'s scan, whose two result types are all it takes
from there, which minimizes the chance of a shared bug.  None of it is on a
fast path: the package loads it on first use of one of its names.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .mappings import (
    ENUMERATION_CAP,
    SELECTION_CAP,
    FiniteMapping,
    Label,
    bit_indices,
    check_size_cap,
    complement,
)
from .partition import HallPartition, HallViolation
from .kernel import KernelMapping, Selection

SUBSET_SCAN_CAP = 20


class InvalidPartitionError(ValueError):
    """A partition handed in for kernel extraction failed validation."""


def image_of_set(mapping: FiniteMapping, members: Iterable[Label]) -> frozenset:
    """The image of a subset of the domain: the union of its members' images.

    The empty subset has the empty image.
    """
    bits = mapping.x_bits(members)
    return frozenset(mapping.y_labels_of(_image(mapping.image_bits, bit_indices(bits), 0)))


def residual(mapping: FiniteMapping, members: Iterable[Label]) -> FiniteMapping:
    """Restrict away a subset of the domain together with everything it can map to.

    Equivalent to ``complement(mapping, W, image_of_set(mapping, W))``; the
    images that remain are the values only the rest of the domain can take.
    """
    members = tuple(members)
    return complement(mapping, members, image_of_set(mapping, members))


def is_critical(mapping: FiniteMapping, members: Iterable[Label]) -> bool:
    """Whether a nonempty subset has an image of exactly its own size."""
    bits = mapping.x_bits(members)
    if bits == 0:
        return False
    return _image(mapping.image_bits, bit_indices(bits), 0).bit_count() == bits.bit_count()


def is_non_reducible(mapping: FiniteMapping, members: Iterable[Label]) -> bool:
    """Whether a nonempty subset contains no proper nonempty critical subset.

    Decided by exhaustive enumeration of all proper subsets; this is the
    reference semantics used for validation, not a fast path.  Subsets of
    sets larger than ``ENUMERATION_CAP`` are refused.
    """
    bits = mapping.x_bits(members)
    if bits == 0:
        return False
    indices = list(bit_indices(bits))
    check_size_cap("non-reducibility check", len(indices), ENUMERATION_CAP)
    for size in range(1, len(indices)):
        for combo in combinations(indices, size):
            img = 0
            for i in combo:
                img |= mapping.image_bits[i]
            if img.bit_count() == size:
                return False
    return True


def verify_partition(mapping: FiniteMapping, partition: HallPartition) -> bool:
    """Independently re-check that a value really is the Hall partition.

    Re-derives everything from the defining clauses using the definitions
    above only (including the exhaustive non-reducibility check): the
    blocks must partition the domain, each block must have nonempty images
    and be non-reducible in the chained residual mapping, every block but the
    last must be critical there, and the stored residual images must agree
    with recomputation; the exit kind follows from the last of them.
    Anything other than a :class:`HallPartition`, a :class:`HallViolation`
    included, is rejected.  Shares no code with
    :func:`.partition.compute_hall_partition`.
    """
    if not isinstance(partition, HallPartition):
        return False
    blocks = partition.blocks
    if (len(blocks) != len(partition.residual_images) or not all(blocks)
            or sum(map(len, blocks)) != len(mapping.x_labels)
            or set().union(*blocks) != set(mapping.x_labels)):
        return False
    current = mapping
    for i, block in enumerate(blocks):
        if (partition.residual_images[i] != image_of_set(current, block)
                or any(not current.image(x) for x in block)
                or not is_non_reducible(current, block)):
            return False
        if i < len(blocks) - 1:
            if not is_critical(current, block):
                return False
            current = residual(current, block)
    return True


def partitions_equal_up_to_renumbering(first: HallPartition,
                                       second: HallPartition) -> bool:
    """Whether two partitions have the same blocks as unordered families.

    Block order is a free choice of the scan, so equality ignores it; the
    residual image attached to each block must match as well (it is forced by
    the block family, so this doubles as a consistency check).  Unless both
    are :class:`HallPartition` values, a violation say, the answer is ``False``.
    """
    if not (isinstance(first, HallPartition) and isinstance(second, HallPartition)
            and len(first.blocks) == len(second.blocks)):
        return False
    pairing_first = dict(zip(first.blocks, first.residual_images))
    pairing_second = dict(zip(second.blocks, second.residual_images))
    return pairing_first == pairing_second


def kernel_from_partition(mapping: FiniteMapping,
                          partition: HallPartition) -> KernelMapping:
    """Read the kernel off a Hall partition of the mapping.

    The partition is validated first; an invalid one is a contract violation,
    not a degenerate kernel.
    """
    if not verify_partition(mapping, partition):
        raise InvalidPartitionError("not a Hall partition of this mapping")
    images = {x: mapping.image(x) & residual
              for block, residual in zip(partition.blocks, partition.residual_images)
              for x in block}
    return KernelMapping(mapping, tuple([images[x] for x in mapping.x_labels]))


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
