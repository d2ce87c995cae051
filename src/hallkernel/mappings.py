"""Set-valued mappings between finite ground sets.

The central value is :class:`FiniteMapping`: an assignment of a subset of a
finite codomain ``Y`` to every element of a finite domain ``X``.  This module
holds that data type, its label/bitset conversions, :func:`complement` (drop
part of the domain, strike a set of values from every image), the size caps
and the errors.  The paper's definitions built on it -- images of domain
subsets, residual mappings, critical and non-reducible sets -- live with the
brute-force references in :mod:`.oracle`.

Labels are opaque; internally every image is a bitset over codomain
positions, so subset enumeration, unions and disjointness checks stay cheap.
All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

Label = Hashable

#: Limit on the size of a set whose subsets get enumerated exhaustively (a
#: non-reducibility check, a scan step no matching finishes): Theta(2^n) work
#: that past this point is never going to finish at a desk.
ENUMERATION_CAP = 24

#: Limit on the domain size of a listing of every selection (the oracle's
#: ``enumerate_selections``, ``hallkernel enumerate``): the output can grow
#: as n!.
SELECTION_CAP = 12


class DomainError(ValueError):
    """An element was used against a ground set it does not belong to."""


class InvalidMappingError(ValueError):
    """A mapping value violates its construction invariants."""


class SizeCapError(RuntimeError):
    """An exhaustive enumeration would exceed its size cap."""


def check_size_cap(what: str, n: int, cap: int) -> None:
    """Refuse an exhaustive ``what`` over ``n`` elements when ``n`` exceeds ``cap``."""
    if n > cap:
        raise SizeCapError(f"{what} over {n} elements exceeds the cap of {cap}")


def bit_indices(bits: int):
    """Yield the positions of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _label_key(label) -> tuple:
    # Its type's name, then a set's members by their own keys, sorted, since
    # a set's iteration order follows the hash seed; a tuple's members by
    # their keys, in order; any other label's repr.
    if isinstance(label, (set, frozenset)):
        return type(label).__qualname__, sorted([_label_key(y) for y in label])
    if isinstance(label, tuple):
        return type(label).__qualname__, [_label_key(y) for y in label]
    return type(label).__qualname__, repr(label)


class _Record:
    """Value semantics for a result record whose fields are its ``__slots__``.

    Fields are set in ``__init__`` with ``object.__setattr__``: assigning or
    deleting one raises :class:`AttributeError`.  Records of one class are
    equal when their :meth:`_key`, all fields unless narrowed, are equal, and
    hash by it; the repr is a dataclass's, and pickle and :mod:`copy` call
    the class on the fields in slot order.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


class FiniteMapping(_Record):
    """A set-valued mapping from a finite domain X into subsets of Y.

    ``x_labels`` and ``y_labels`` fix the (stable, deterministic) enumeration
    order of the ground sets; ``image_bits[i]`` is the image of the i-th
    domain element as a bitset over ``y_labels`` positions.  The domain must
    be nonempty; images may be empty, and the codomain may be empty when all
    images are (complement mappings can strike every value).  A field cannot
    be assigned or deleted once built, so the hash never changes.  Those
    three fields are all it holds, so a label lookup scans a label tuple;
    :meth:`images_by_label` reads every image in one pass.
    """

    __slots__ = ("x_labels", "y_labels", "image_bits")

    def __init__(self, x_elements: Iterable[Label], y_elements: Iterable[Label],
                 images: Mapping[Label, Iterable[Label]]):
        x_labels = tuple(x_elements)
        y_labels = tuple(y_elements)
        if not x_labels:
            raise InvalidMappingError("domain must be nonempty")
        if len(set(x_labels)) != len(x_labels):
            raise InvalidMappingError("domain labels must be distinct")
        y_index = {y: j for j, y in enumerate(y_labels)}
        if len(y_index) != len(y_labels):
            raise InvalidMappingError("codomain labels must be distinct")
        bits = []
        for x in x_labels:
            try:
                members = images[x]
            except KeyError:
                raise InvalidMappingError(f"no image given for {x!r}") from None
            b = 0
            for y in members:
                j = y_index.get(y)
                if j is None:
                    raise InvalidMappingError(
                        f"image of {x!r} contains {y!r}, which is not in the codomain")
                b |= 1 << j
            bits.append(b)
        if len(images) != len(x_labels):
            extra = next(x for x in images if x not in x_labels)
            raise InvalidMappingError(f"{extra!r} has an image but is not in the domain")
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "image_bits", tuple(bits))

    @classmethod
    def from_dict(cls, images: Mapping[Label, Iterable[Label]]) -> "FiniteMapping":
        """Build a mapping from ``{x: iterable of y}``, inferring the codomain.

        The domain order is the insertion order of ``images``.  The codomain
        is the union of the images, sorted when ``sorted`` puts the labels in
        strictly increasing order and in first-appearance order otherwise,
        where a ``set`` or ``frozenset`` image, whose own order follows the
        hash seed, gives its members by type name, then a set label by its
        members in this order and any other label by its ``repr``.  For a
        codomain of one's own, call the constructor:
        ``FiniteMapping(images, y_labels, images)``.
        """
        materialized = {x: tuple(members) for x, members in images.items()}
        x_labels = tuple(materialized)
        seen: dict[Label, None] = {}
        for x in x_labels:
            for y in materialized[x]:
                seen.setdefault(y)
        try:
            y_labels = tuple(sorted(seen))
            if not all([a < b for a, b in zip(y_labels, y_labels[1:])]):
                raise TypeError  # a partial order, as the subset test of sets
        except TypeError:
            seen.clear()
            for x, members in images.items():
                ordered = materialized[x]
                if isinstance(members, (set, frozenset)):
                    ordered = sorted(ordered, key=_label_key)
                seen.update(dict.fromkeys(ordered))
            y_labels = tuple(seen)
        return cls(x_labels, y_labels, materialized)

    # -- label / bitset conversions -------------------------------------

    @property
    def full_x_bits(self) -> int:
        return (1 << len(self.x_labels)) - 1

    def x_bits(self, members: Iterable[Label]) -> int:
        """Bitset of a subset of X given by labels; unknown labels are an error."""
        return _bits(self.x_labels, members, "domain")

    def y_bits(self, members: Iterable[Label]) -> int:
        return _bits(self.y_labels, members, "codomain")

    def x_labels_of(self, bits: int) -> tuple:
        return tuple([self.x_labels[i] for i in bit_indices(bits)])

    def y_labels_of(self, bits: int) -> tuple:
        return tuple([self.y_labels[j] for j in bit_indices(bits)])

    # -- label-level accessors -------------------------------------------

    def image(self, x: Label) -> frozenset:
        """One element's image as a set of labels; see :meth:`images_by_label` for all."""
        i = _position(self.x_labels, x, "domain")
        return frozenset(self.y_labels_of(self.image_bits[i]))

    def images_by_label(self) -> dict:
        return {x: frozenset(self.y_labels_of(b))
                for x, b in zip(self.x_labels, self.image_bits)}

    # -- value semantics ---------------------------------------------------

    def __repr__(self) -> str:
        body = ", ".join(f"{x!r}: {set(self.y_labels_of(b)) or '{}'}"
                         for x, b in zip(self.x_labels, self.image_bits))
        return f"FiniteMapping({{{body}}})"

    def __reduce__(self):
        # _Record's would pass the bitsets; the constructor takes images.
        return self.__class__, (self.x_labels, self.y_labels, {
            x: self.y_labels_of(b) for x, b in zip(self.x_labels, self.image_bits)})


def _position(labels: tuple, label: Label, ground: str) -> int:
    """Where ``label`` sits in ``labels``; one not there is a :class:`DomainError`."""
    try:
        return labels.index(label)
    except ValueError:
        raise DomainError(f"{label!r} is not in the {ground}") from None


def _bits(labels: tuple, members: Iterable[Label], ground: str) -> int:
    bits = 0
    for label in members:
        bits |= 1 << _position(labels, label, ground)
    return bits


def complement(mapping: FiniteMapping, drop_x: Iterable[Label],
               drop_y: Iterable[Label]) -> FiniteMapping:
    """Drop ``drop_x`` from the domain and strike ``drop_y`` from every image.

    The result maps X minus ``drop_x`` into subsets of Y minus ``drop_y``;
    images may come out empty.  Dropping the whole domain is rejected, since
    a mapping needs a nonempty domain.
    """
    w = mapping.x_bits(drop_x)
    z = mapping.y_bits(drop_y)
    if w == mapping.full_x_bits:
        raise DomainError("cannot drop the entire domain")
    images = {x: mapping.y_labels_of(b & ~z)
              for i, (x, b) in enumerate(zip(mapping.x_labels, mapping.image_bits))
              if not (w >> i) & 1}
    y_labels = [y for j, y in enumerate(mapping.y_labels) if not (z >> j) & 1]
    return FiniteMapping(images, y_labels, images)
