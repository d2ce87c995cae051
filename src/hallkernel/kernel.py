"""The alldifferent kernel: which values survive on some injective selection.

A *selection* picks one value from each image; it is *alldifferent* when the
picks are pairwise distinct.  The alldifferent kernel of a mapping keeps, for
every domain element, exactly the values taken by at least one alldifferent
selection.  When a Hall partition exists, an element's kernel image is its
image within its block's residual image (what the earlier blocks can take is
struck); when no selection exists, the kernel degenerates to all-empty images
(a value, not an error -- the violation witness rides along as diagnostics).

:func:`kernel_bits` reads it off one bitset :func:`hall_scan`; labels appear
only in the public results and in the arguments handed to selection pickers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .mappings import DomainError, FiniteMapping, Label, bit_indices, complement
from .partition import HallPartition, HallViolation, hall_scan, verify_partition
from .partition import compute_hall_partition  # wrapped by perfbench/run.py's TRACED


class InvalidPartitionError(ValueError):
    """A partition handed in for kernel extraction failed validation."""


@dataclass(frozen=True)
class Selection:
    """A point-valued choice ``x -> y`` with one value per domain element."""

    x_labels: tuple
    values: tuple

    def __getitem__(self, x: Label):
        if x not in self.x_labels:
            raise DomainError(f"{x!r} is not in the domain")
        return self.values[self.x_labels.index(x)]

    def items(self):
        return tuple(list(zip(self.x_labels, self.values)))

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


def kernel_bits(image_bits) -> list[int] | int:
    """Each position's kernel image as a bitset, or the Hall-violation witness.

    Masks each image with its block's residual image from :func:`hall_scan`,
    which is the block's image less what the earlier blocks take.
    """
    result = hall_scan(image_bits, (1 << len(image_bits)) - 1)
    if isinstance(result, int):
        return result
    kernel = list(image_bits)
    for wbits, rbits in zip(result[0], result[1]):
        for i in bit_indices(wbits):
            kernel[i] &= rbits
    return kernel


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


def alldifferent_kernel(mapping: FiniteMapping) -> KernelMapping:
    """The alldifferent kernel, via the Hall partition when one exists.

    Without any alldifferent selection the kernel is total but all-empty,
    carrying the Hall-violation witness as diagnostic metadata.
    """
    result = kernel_bits(mapping.image_bits)
    if isinstance(result, int):
        empty = tuple([frozenset() for _ in mapping.x_labels])
        witness = HallViolation(frozenset(mapping.x_labels_of(result)))
        return KernelMapping(mapping, empty, witness=witness)
    return KernelMapping(mapping, tuple([frozenset(mapping.y_labels_of(b)) for b in result]))


def is_alldifferent(mapping: FiniteMapping) -> bool:
    """Whether every image is nonempty and every value lies on some selection."""
    # An empty image makes the scan return a witness, which is an int, not a list.
    return kernel_bits(mapping.image_bits) == list(mapping.image_bits)


def has_unique_selection(mapping: FiniteMapping) -> bool:
    """Whether exactly one alldifferent selection exists.

    Holds exactly when a Hall partition exists with as many blocks as the
    whole domain has image values; all kernel images are then singletons.
    """
    result = hall_scan(mapping.image_bits, mapping.full_x_bits)
    if isinstance(result, int):
        return False
    total_image = mapping.image_bits_of(mapping.full_x_bits).bit_count()
    return len(result[0]) == total_image


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
    result = hall_scan(mapping.image_bits, mapping.full_x_bits)
    if isinstance(result, int):
        return HallViolation(frozenset(mapping.x_labels_of(result)))
    chosen: list = [None] * len(mapping.x_labels)
    _assign_by_blocks(mapping, result[0], 0, chosen, pick_x, pick_y)
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
