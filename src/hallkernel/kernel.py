"""The alldifferent kernel: which values survive on some injective selection.

A *selection* picks one value from each image; it is *alldifferent* when the
picks are pairwise distinct.  The alldifferent kernel of a mapping keeps, for
every domain element, exactly the values taken by at least one alldifferent
selection.  When a Hall partition exists, an element's kernel image is its
image within its block's residual image (what the earlier blocks can take is
struck); when no selection exists, the kernel degenerates to all-empty images
(a value, not an error -- the violation witness rides along as diagnostics).

:func:`kernel_bits` reads it off one bitset :func:`hall_scan`; a kernel of
one block is the images themselves, handed back as the same read-only object.
:func:`iter_selections` walks the images' complete matchings, which are the
selections, with no scan.  Labels appear only in the public results.  No size
is refused here: only a violation's witness can need the scan's capped walk.
:func:`.oracle.kernel_from_partition` reads the kernel off a checked partition.
"""

from __future__ import annotations

from .mappings import DomainError, FiniteMapping, Label, complement, _position, _Record
from .partition import HallViolation, augment, complete_matching, hall_scan
from .partition import compute_hall_partition  # wrapped by perfbench/run.py's TRACED


class Selection(_Record):
    """A point-valued choice ``x -> y`` with one value per domain element."""

    __slots__ = __match_args__ = ("x_labels", "values")

    def __init__(self, x_labels: tuple, values: tuple):
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "values", values)

    def __getitem__(self, x: Label):
        return self.values[_position(self.x_labels, x, "domain")]

    def items(self):
        return tuple(list(zip(self.x_labels, self.values)))

    def as_dict(self) -> dict:
        return dict(zip(self.x_labels, self.values))


class KernelMapping(_Record):
    """A submapping of ``base`` holding each element's kernel image.

    Either every image is nonempty (a selection exists) or every image is
    empty (none does); the two cases never mix.  ``witness`` carries the
    violating subset in the empty case and does not take part in equality.
    """

    __slots__ = __match_args__ = ("base", "images", "witness")

    def __init__(self, base: FiniteMapping, images: tuple[frozenset, ...],
                 witness: HallViolation | None = None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "witness", witness)

    def _key(self) -> tuple:
        return self.base, self.images

    @property
    def is_empty(self) -> bool:
        return all(not img for img in self.images)

    def image(self, x: Label) -> frozenset:
        return self.images[_position(self.base.x_labels, x, "domain")]

    def images_by_label(self) -> dict:
        return dict(zip(self.base.x_labels, self.images))


def kernel_bits(image_bits) -> list[int] | int:
    """Each position's kernel image as a bitset, or the Hall-violation witness.

    Masks each image with its block's residual image from :func:`hall_scan`,
    which is the block's image less what the earlier blocks take.  A single
    block's residual image is the union of all the images, so then the
    kernel is the images themselves: ``image_bits`` is returned as it is, the
    same object.  Otherwise the result is a new list.  Either way it is
    read-only; a caller must not mutate it.
    """
    result = hall_scan(image_bits)
    if isinstance(result, int):
        return result
    if len(result[0]) == 1:
        return image_bits
    kernel = list(image_bits)
    for wbits, rbits in zip(result[0], result[1]):
        while wbits:
            low = wbits & -wbits
            kernel[low.bit_length() - 1] &= rbits
            wbits ^= low
    return kernel


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
    # An empty image makes the scan return a witness, which is an int, not a
    # list; a kernel of several blocks can still equal the images.
    bits = mapping.image_bits
    result = kernel_bits(bits)
    return result is bits or result == list(bits)


def has_unique_selection(mapping: FiniteMapping) -> bool:
    """Whether exactly one alldifferent selection exists.

    Holds exactly when a Hall partition exists and every residual image holds
    one value; every block is then one element, and every kernel image that
    value.
    """
    result = hall_scan(mapping.image_bits)
    return not isinstance(result, int) and all(r & (r - 1) == 0 for r in result[1])


def punctured_mapping(mapping: FiniteMapping, x: Label, y: Label) -> FiniteMapping:
    """Remove one domain element and strike one of its values everywhere.

    ``y`` must lie in the image of ``x``; the domain must keep at least one
    element.  Public, with no library caller, for the paper's test: a mapping
    is alldifferent exactly when every such puncture still admits a selection.
    """
    if y not in mapping.image(x):
        raise DomainError(f"{y!r} is not in the image of {x!r}")
    return complement(mapping, (x,), (y,))


def extract_selection(mapping: FiniteMapping) -> Selection | HallViolation:
    """The least alldifferent selection, or the scan's Hall-violation witness.

    Least is lexicographic, over the domain in label order with values
    compared by codomain position: the first item of :func:`iter_selections`.
    """
    for selection in iter_selections(mapping):
        return selection
    witness = hall_scan(mapping.image_bits)
    if not isinstance(witness, int):
        raise RuntimeError("the scan found blocks where no complete matching exists")
    return HallViolation(frozenset(mapping.x_labels_of(witness)))


def iter_selections(mapping: FiniteMapping):
    """Every alldifferent selection, in :func:`.oracle.enumerate_selections` order.

    That is lexicographic order, as in :func:`extract_selection`; none on a
    Hall violation.  The work between two selections is polynomial (Uno 1997),
    so no size is refused.

    Proof sketch.  By definition the selections are the complete matchings
    of the images, so the kernel drops out.  The walk is depth first, each
    element trying its untaken values in ascending order.  With M a complete
    matching where the earlier elements hold their picks, x can take v exactly
    when v is M(x), v is free, or v's owner reaches a free value or M(x) along
    alternating edges avoiding v and the taken values (Berge); shifting M
    along that path hands v to x.  A failed search leaves M as it was, and the
    elements it visited own all their untaken values: x can take none of the
    values visited, whatever M becomes, and drops them for good.
    """
    res = mapping.image_bits
    matching = complete_matching(res)
    if matching is None:
        return
    match, owner, matched = matching
    left = []  # the values each position before k has still to try
    k = taken = 0
    candidates = res[0]  # a mapping's domain is never empty
    while True:
        own, seen = match[k], taken  # M may have changed since k last searched
        while candidates:
            v = candidates & -candidates
            if v == own or not v & matched:
                matched ^= own ^ v  # a free v is taken and ``own`` freed
                break
            reached, seen = augment(res, match, owner, owner[v], seen | v,
                                    ~matched | own)
            if reached:
                matched ^= own ^ reached  # a path into a free value frees ``own``
                break
            candidates &= ~seen
        if candidates:
            left.append(candidates ^ v)
            match[k] = v
            owner[v] = k
            taken |= v
            k += 1
            if k < len(res):
                candidates = res[k] & ~taken
                continue
            yield Selection(mapping.x_labels, tuple([mapping.y_labels[v.bit_length() - 1]
                                                     for v in match]))
        if not left:
            return
        k -= 1
        taken ^= match[k]
        candidates = left.pop()
