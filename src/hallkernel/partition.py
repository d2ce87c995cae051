"""Hall partitions: ordered block decompositions of a set-valued mapping.

A Hall partition splits the domain into blocks ``(W_1, ..., W_m)`` such that
each ``W_i`` is a non-reducible set of the mapping left over after removing
the earlier blocks and everything they can map to, and every block except
possibly the last is critical there.  Such a decomposition exists exactly
when the mapping satisfies the Hall condition (every subset's image is at
least as large as the subset), and it is unique up to renumbering.

:func:`hall_scan` finds the partition by scanning subsets of the remaining
domain in increasing size (lexicographic within a size) and extracting the
first critical set found as the next block.  A subset whose residual image is
smaller than itself certifies a Hall-condition violation instead; the
violation is returned as a value, never raised.  The scan runs on bitsets and
applies the size cap; labels appear only in :func:`compute_hall_partition`
and :func:`check_hall`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from .mappings import (
    ENUMERATION_CAP,
    FiniteMapping,
    DomainError,
    SizeCapError,
    bit_indices,
    image_of_set,
    is_critical,
    is_non_reducible,
    residual,
)


class ExitKind(enum.Enum):
    """How the block scan terminated.

    ``LAST_BLOCK_CRITICAL``: the final block was itself a critical set and
    exhausted the domain; the total image is exactly as large as the domain.
    ``LAST_BLOCK_NONCRITICAL``: no critical set remained, so the rest of the
    domain became the final block; the total image is strictly larger.
    """

    LAST_BLOCK_CRITICAL = "LastBlockCritical"
    LAST_BLOCK_NONCRITICAL = "LastBlockNonCritical"


@dataclass(frozen=True)
class HallPartition:
    """Blocks of a Hall partition with their residual images.

    ``residual_images[i]`` holds the values available to ``blocks[i]`` after
    everything the earlier blocks can take is struck out; the residual images
    are pairwise disjoint and together cover the image of the whole domain.
    """

    blocks: tuple[frozenset, ...]
    residual_images: tuple[frozenset, ...]
    exit_kind: ExitKind


@dataclass(frozen=True)
class HallViolation:
    """A witness subset of the domain whose image is smaller than itself."""

    witness: frozenset


def hall_scan(image_bits, remaining: int, struck: int = 0, *,
              prune: bool = True):
    """Scan the domain positions in ``remaining``, values in ``struck`` taken.

    Subsets are tried in increasing size, lexicographic within a size; the
    first whose residual image is no larger than itself decides the step.  An
    equal image makes it the next block (non-reducible in the running residual
    mapping); a smaller one makes it, with the blocks taken so far, a witness.
    With ``prune``, each size is walked depth first in lexicographic order with
    the running union of the chosen images, and a partial subset whose union
    already holds more values than the size is cut with everything extending
    it: unions only grow, so no hit lies below it, and the first combination
    the walk completes is the lexicographically first hit of that size.  Sizes
    below the smallest residual image are cut at the first position.  Without
    ``prune`` every combination is built in full.  Returns ``(block_bits,
    residual_bits, exit_kind)``, or the witness bitset.  More than
    ``ENUMERATION_CAP`` positions raise :class:`SizeCapError` up front.
    """
    n = remaining.bit_count()
    if n > ENUMERATION_CAP:
        raise SizeCapError(
            f"partition scan over {n} elements exceeds the cap of {ENUMERATION_CAP}")
    first_fit = _first_fit_pruned if prune else _first_fit
    start_remaining = remaining
    block_bits: list[int] = []
    residual_bits: list[int] = []
    while True:
        indices = list(bit_indices(remaining))
        res = [image_bits[i] & ~struck for i in indices]
        for size in range(1, len(indices) + 1):
            hit = first_fit(res, size)
            if hit is not None:
                break
        else:
            # No critical set among what remains: it all becomes the last block.
            img = 0
            for b in res:
                img |= b
            block_bits.append(remaining)
            residual_bits.append(img)
            exit_kind = ExitKind.LAST_BLOCK_NONCRITICAL
            break
        combo, img = hit
        wbits = 0
        for k in combo:
            wbits |= 1 << indices[k]
        if img.bit_count() < len(combo):
            return wbits | (start_remaining & ~remaining)
        block_bits.append(wbits)
        residual_bits.append(img)
        struck |= img
        remaining &= ~wbits
        if remaining == 0:
            exit_kind = ExitKind.LAST_BLOCK_CRITICAL
            break
    return tuple(block_bits), tuple(residual_bits), exit_kind


def _first_fit(res, size):
    # The lex-first ``size``-combination of positions whose union of images
    # has at most ``size`` values, as ``(combo, union)``; ``None`` if none.
    for combo in combinations(range(len(res)), size):
        img = 0
        for k in combo:
            img |= res[k]
        if img.bit_count() <= size:
            return combo, img
    return None


def _first_fit_pruned(res, size):
    # ``_first_fit`` as an iterative depth-first walk: ``combo[:depth]`` is
    # the partial combination, ``union`` its union of images and
    # ``unions[d]`` the union over ``combo[:d]``.  Position ``i`` is tried at
    # ``depth`` only while enough positions follow it to fill the size.
    combo = [0] * size
    unions = [0] * size
    depth = union = i = 0
    last = len(res) - size
    while True:
        if i > last + depth:
            if not depth:
                return None
            depth -= 1
            i = combo[depth] + 1
            union = unions[depth]
            continue
        img = union | res[i]
        if img.bit_count() <= size:
            combo[depth] = i
            if depth + 1 == size:
                return tuple(combo), img
            unions[depth] = union
            depth += 1
            union = img
        i += 1


def compute_hall_partition(mapping: FiniteMapping) -> HallPartition | HallViolation:
    """Compute the Hall partition of a mapping, or a violation witness.

    Runs :func:`hall_scan` over the whole domain and turns its bitsets into
    label sets.
    """
    result = hall_scan(mapping.image_bits, mapping.full_x_bits)
    if isinstance(result, int):
        return HallViolation(frozenset(mapping.x_labels_of(result)))
    block_bits, residual_bits, exit_kind = result
    return HallPartition(
        blocks=tuple(frozenset(mapping.x_labels_of(b)) for b in block_bits),
        residual_images=tuple(frozenset(mapping.y_labels_of(r)) for r in residual_bits),
        exit_kind=exit_kind,
    )


def check_hall(mapping: FiniteMapping) -> HallViolation | None:
    """Return a violation witness if the Hall condition fails, else ``None``."""
    result = hall_scan(mapping.image_bits, mapping.full_x_bits)
    if isinstance(result, int):
        return HallViolation(frozenset(mapping.x_labels_of(result)))
    return None


def verify_partition(mapping: FiniteMapping, partition: HallPartition) -> bool:
    """Independently re-check that a value really is the Hall partition.

    Re-derives everything from the defining clauses using the core
    operations only (including the exhaustive non-reducibility check): the
    blocks must partition the domain, each block must have nonempty images
    and be non-reducible in the chained residual mapping, every block but the
    last must be critical there, and the stored residual images and exit kind
    must agree with recomputation.  Anything other than a
    :class:`HallPartition`, a :class:`HallViolation` included, is rejected.
    Shares no code with :func:`compute_hall_partition`.
    """
    if not isinstance(partition, HallPartition):
        return False
    blocks = partition.blocks
    if len(blocks) != len(partition.residual_images):
        return False
    covered: set = set()
    total = 0
    for block in blocks:
        if not block:
            return False
        covered |= block
        total += len(block)
    if total != len(mapping.x_labels) or covered != set(mapping.x_labels):
        return False
    current = mapping
    last_critical = None
    try:
        for i, block in enumerate(blocks):
            if partition.residual_images[i] != image_of_set(current, block):
                return False
            if any(not current.image(x) for x in block):
                return False
            if not is_non_reducible(current, block):
                return False
            critical = is_critical(current, block)
            if i < len(blocks) - 1:
                if not critical:
                    return False
                current = residual(current, block)
            else:
                last_critical = critical
    except DomainError:
        return False
    expected = (ExitKind.LAST_BLOCK_CRITICAL if last_critical
                else ExitKind.LAST_BLOCK_NONCRITICAL)
    return partition.exit_kind is expected


def partitions_equal_up_to_renumbering(first: HallPartition,
                                       second: HallPartition) -> bool:
    """Whether two partitions have the same blocks as unordered families.

    Block order is a free choice of the scan, so equality ignores it; the
    residual image attached to each block must match as well (it is forced by
    the block family, so this doubles as a consistency check).
    """
    if len(first.blocks) != len(second.blocks):
        return False
    pairing_first = dict(zip(first.blocks, first.residual_images))
    pairing_second = dict(zip(second.blocks, second.residual_images))
    return pairing_first == pairing_second
