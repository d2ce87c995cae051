"""The alldifferent kernel: which values survive on some injective selection.

A *selection* picks one value from each image; it is *alldifferent* when the
picks are pairwise distinct.  The alldifferent kernel of a mapping keeps, for
every domain element, exactly the values taken by at least one alldifferent
selection.  When a Hall partition exists, the kernel is obtained directly
from it by striking, within each block, everything the earlier blocks can
map to; when no selection exists, the kernel degenerates to all-empty images
(a value, not an error -- the violation witness rides along as diagnostics).

Kernel read-off and selection extraction run on bitsets; labels appear only
in the public results and in the arguments handed to selection pickers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .mappings import DomainError, FiniteMapping, Label, bit_indices, complement
from .partition import (
    HallPartition,
    HallViolation,
    compute_hall_partition,
    hall_scan,
    verify_partition,
)


class InvalidPartitionError(ValueError):
    """A partition handed in for kernel extraction failed validation."""


@dataclass(frozen=True)
class Selection:
    """A point-valued choice ``x -> y`` with one value per domain element."""

    x_labels: tuple
    values: tuple

    def __getitem__(self, x: Label):
        return self.values[self.x_labels.index(x)]

    def items(self):
        return tuple(zip(self.x_labels, self.values))

    def as_dict(self) -> dict:
        return dict(zip(self.x_labels, self.values))


@dataclass(frozen=True)
class KernelMapping:
    """A submapping of ``base`` holding each element's kernel image.

    Either every image is nonempty (a selection exists) or every image is
    empty (none does); the two cases never mix.  ``witness`` carries the
    violating subset in the empty case and does not take part in equality.
    """

    base: FiniteMapping
    images: tuple[frozenset, ...]
    witness: HallViolation | None = field(default=None, compare=False)

    @property
    def is_empty(self) -> bool:
        return all(not img for img in self.images)

    def image(self, x: Label) -> frozenset:
        i = self.base._x_index.get(x)
        if i is None:
            raise DomainError(f"{x!r} is not in the domain")
        return self.images[i]

    def images_by_label(self) -> dict:
        return dict(zip(self.base.x_labels, self.images))


def _kernel_images(mapping: FiniteMapping,
                   block_bits: Iterable[int]) -> tuple[frozenset, ...]:
    # Image of x in block i: everything the earlier blocks can take is struck.
    n = len(mapping.x_labels)
    images: list[frozenset | None] = [None] * n
    prefix = 0
    for wbits in block_bits:
        for i in bit_indices(wbits):
            images[i] = frozenset(mapping.y_labels_of(mapping.image_bits[i] & ~prefix))
        prefix |= mapping.image_bits_of(wbits)
    return tuple(images)


def kernel_from_partition(mapping: FiniteMapping,
                          partition: HallPartition) -> KernelMapping:
    """Read the kernel off a Hall partition of the mapping.

    The partition is validated first; an invalid one is a contract violation,
    not a degenerate kernel.
    """
    if not verify_partition(mapping, partition):
        raise InvalidPartitionError("not a Hall partition of this mapping")
    images = _kernel_images(mapping, map(mapping.x_bits, partition.blocks))
    return KernelMapping(mapping, images)


def alldifferent_kernel(mapping: FiniteMapping) -> KernelMapping:
    """The alldifferent kernel, via the Hall partition when one exists.

    Without any alldifferent selection the kernel is total but all-empty,
    carrying the Hall-violation witness as diagnostic metadata.
    """
    result = compute_hall_partition(mapping)
    if isinstance(result, HallViolation):
        empty = tuple(frozenset() for _ in mapping.x_labels)
        return KernelMapping(mapping, empty, witness=result)
    images = _kernel_images(mapping, map(mapping.x_bits, result.blocks))
    return KernelMapping(mapping, images)


def is_alldifferent(mapping: FiniteMapping) -> bool:
    """Whether every image is nonempty and every value lies on some selection."""
    if any(b == 0 for b in mapping.image_bits):
        return False
    kern = alldifferent_kernel(mapping)
    return all(kern.images[i] == frozenset(mapping.y_labels_of(b))
               for i, b in enumerate(mapping.image_bits))


def has_unique_selection(mapping: FiniteMapping) -> bool:
    """Whether exactly one alldifferent selection exists.

    Holds exactly when a Hall partition exists with as many blocks as the
    whole domain has image values; all kernel images are then singletons.
    """
    result = compute_hall_partition(mapping)
    if isinstance(result, HallViolation):
        return False
    total_image = mapping.image_bits_of(mapping.full_x_bits).bit_count()
    return len(result.blocks) == total_image


def punctured_mapping(mapping: FiniteMapping, x: Label, y: Label) -> FiniteMapping:
    """Remove one domain element and strike one of its values everywhere.

    ``y`` must lie in the image of ``x``; the domain must keep at least one
    element.  The mapping is alldifferent exactly when every such puncture
    still admits a selection, which is what this helper exists to test.
    """
    if y not in mapping.image(x):
        raise DomainError(f"{y!r} is not in the image of {x!r}")
    return complement(mapping, (x,), (y,))


def extract_selection(
    mapping: FiniteMapping,
    *,
    choose_x: Callable[[Sequence], Label] | None = None,
    choose_y: Callable[[Label, Sequence], Label] | None = None,
) -> Selection | HallViolation:
    """Build one alldifferent selection, or return the violation witness.

    Works block by block through the Hall partition: pick a domain element of
    the block, pick a value from its residual image, puncture the block by
    that pair and recurse on what is left (re-partitioning it, since the
    puncture may split the block).  Any pick within a block is safe, so the
    pickers are hooks; the defaults take the least-index element and value,
    making the output reproducible.
    """
    pick_x = choose_x if choose_x is not None else (lambda labels: labels[0])
    pick_y = choose_y if choose_y is not None else (lambda x, labels: labels[0])
    result = compute_hall_partition(mapping)
    if isinstance(result, HallViolation):
        return result
    chosen: list = [None] * len(mapping.x_labels)
    _assign_by_blocks(mapping, map(mapping.x_bits, result.blocks), 0, chosen,
                      pick_x, pick_y)
    return Selection(mapping.x_labels, tuple(chosen))


def _assign_by_blocks(mapping, block_bits, struck, chosen, pick_x, pick_y):
    # ``struck`` holds the values taken before the first block; each block
    # strikes its whole image for the blocks after it.
    for wbits in block_bits:
        x = pick_x(mapping.x_labels_of(wbits))
        i = mapping._x_index.get(x)
        if i is None or not (wbits >> i) & 1:
            raise DomainError(f"choose_x picked {x!r}, which is not in the block")
        candidates = mapping.y_labels_of(mapping.image_bits[i] & ~struck)
        y = pick_y(x, candidates)
        if y not in candidates:
            raise DomainError(
                f"choose_y picked {y!r}, which is not available for {x!r}")
        chosen[i] = y
        rest = wbits & ~(1 << i)
        if rest:
            taken = struck | 1 << mapping._y_index[y]
            punctured = hall_scan(mapping.image_bits, rest, taken)
            if isinstance(punctured, int):
                # A block is non-reducible with nonempty images, so any
                # puncture of it still satisfies the Hall condition.
                raise RuntimeError(
                    f"puncturing a Hall block at {x!r} -> {y!r} left a Hall violation")
            _assign_by_blocks(mapping, punctured[0], taken, chosen, pick_x, pick_y)
        struck |= mapping.image_bits_of(wbits)
