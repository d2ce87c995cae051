"""Hall partitions: ordered block decompositions of a set-valued mapping.

A Hall partition splits the domain into blocks ``(W_1, ..., W_m)`` such that
each ``W_i`` is a non-reducible set of the mapping left over after removing
the earlier blocks and everything they can map to, and every block except
possibly the last is critical there.  Such a decomposition exists exactly
when the mapping satisfies the Hall condition (every subset's image is at
least as large as the subset), and it is unique up to renumbering.  Those
definitions, and the check of a partition by them, live in :mod:`.oracle`.

:func:`hall_scan` finds the partition one block per step: the (size,
lex)-first subset of what remains whose residual image is no larger than
itself, or else the whole rest.  A smaller residual image certifies a
Hall-condition violation instead, returned as a value, never raised.  The
scan runs on bitsets; labels appear only in :func:`compute_hall_partition`
and :func:`check_hall`.  A one-element block is peeled in place from the
lists of positions and images the scan carries from step to step, so a
forced chain builds no list per step.  A step whose hit is the whole rest
ends the scan there, as its last block.

A step with no hit of size 1 first counts, in one pass over its residual
images, how many values each image has and how many images hold each value.
A size s holds no hit when fewer than s images have at most s values, or
when, three or fewer images left out, fewer than u - s of the u values in the
union are held by at most m - s of the m images: the preemptive sets of Crook
2009 read from both sides, a naked set of s cells against a hidden set of
u - s digits.  Such sizes are skipped, and the whole step is the hit when no
smaller size has one; a step of one or two positions has no size to skip
and counts nothing.  :func:`hall_scan` gives the proof.

A step over more than :data:`MATCHING_CUTOFF` positions with no hit of size 1
is finished from a maximum matching instead (Régin 1994, Dulmage--Mendelsohn
1958): when the matching covers every position, the remaining blocks, in the
scan's order, are read off one transitive closure of its alternating digraph
in polynomial time; when it does not, the Hall condition fails and the scan
goes on to find its own witness.  :func:`hall_scan` gives the argument.
"""

from __future__ import annotations

import enum

from .mappings import ENUMERATION_CAP, FiniteMapping, check_size_cap, _Record

#: Steps over more positions than this are finished by
#: :func:`_matching_completion` once the size-1 pass has no hit.  It is the
#: measured crossover on random one-block mappings (CPython 3.11, Xeon): the
#: scan took 34 us against the completion's 36 us at 9 positions and 59
#: against 39 at 10.  Sudoku units, at most 9 cells, stay on the scan.
MATCHING_CUTOFF = 9


class ExitKind(enum.Enum):
    """How the block scan terminated: a property of the last block alone.

    ``LAST_BLOCK_CRITICAL``: the last block's residual image is exactly as
    large as the block, and the total image exactly as large as the domain.
    ``LAST_BLOCK_NONCRITICAL``: no critical set remained, so the rest of the
    domain became the last block; both images are strictly larger.
    """

    LAST_BLOCK_CRITICAL = "LastBlockCritical"
    LAST_BLOCK_NONCRITICAL = "LastBlockNonCritical"


class HallPartition(_Record):
    """Blocks of a Hall partition with their residual images.

    ``residual_images[i]`` holds the values available to ``blocks[i]`` after
    everything the earlier blocks can take is struck out; the residual images
    are pairwise disjoint and together cover the image of the whole domain.
    """

    __slots__ = ("blocks", "residual_images")
    __match_args__ = ("blocks", "residual_images", "exit_kind")

    def __init__(self, blocks: tuple[frozenset, ...],
                 residual_images: tuple[frozenset, ...]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "residual_images", residual_images)

    @property
    def exit_kind(self) -> ExitKind:
        """Critical exactly when the last block's residual image is as large as it."""
        if len(self.residual_images[-1]) == len(self.blocks[-1]):
            return ExitKind.LAST_BLOCK_CRITICAL
        return ExitKind.LAST_BLOCK_NONCRITICAL


class HallViolation(_Record):
    """A witness subset of the domain whose image is smaller than itself."""

    __slots__ = __match_args__ = ("witness",)

    def __init__(self, witness: frozenset):
        object.__setattr__(self, "witness", witness)


def hall_scan(image_bits):
    """The Hall blocks of the positions of ``image_bits``, or a witness.

    Each step ends in one hit: the first subset of the positions left, in
    increasing size and lexicographic within a size, whose residual image is
    no larger than itself, or else all of them.  A smaller image makes it,
    with the blocks taken so far, a witness; any other the next block
    (non-reducible in the running residual mapping).  Each size is walked
    depth first in lexicographic order with the running union of the chosen
    images, and a partial subset whose union already holds more values than
    the size is cut with everything extending it: unions only grow, so no hit
    lies below it, and the first combination the walk completes is the
    lexicographically first hit of that size.  Sizes below the smallest
    residual image are cut at the first position.  Returns ``(block_bits,
    residual_bits)``, or the witness bitset.

    The positions left and their raw images are carried from step to step in
    two lists, with the positions taken into blocks and the values struck by
    them as two bitsets.  Size 1 is tried inline: the first image left with
    at most one value once the struck values are masked out is the hit, an
    empty one a witness with the blocks taken, and a one-value one is deleted
    from both lists.  So a chain of one-element blocks builds no list; only a
    step with no hit of size 1 builds its residual images for the walks
    below (a step with nothing struck yet walks the images list itself, which
    nothing mutates), and a hit of several positions rebuilds the two lists.
    A hit of every position left ends the scan at once: the block is every
    position not taken, with the step's union as its residual image, and no
    position is read off one by one and no list is rebuilt.

    Only the size-1 pass yields a witness; a walked hit, the whole rest
    included, is always a block.  Take a walked hit S with |N'(S)| < |S|.
    Dropping any one position p leaves S - p, whose image has at most |S| - 1
    values, so S - p is a hit too, one size smaller.  At size 1 the inline
    pass finds it before any walk; at a larger size the walk, which tries
    sizes in increasing order and never skips a size that holds a hit (the
    counts below), stops there first.  So S is never the walked hit.
    :func:`.oracle.oracle_hall_scan` keeps the general rule and returns a
    witness for such a set, so the differential tests would catch a deficient
    set taken as a block.

    A step over m positions whose size-1 pass has no hit makes one pass over
    the residual images for their value counts, their union U of u values, and
    bit-sliced sets of the values held by at least 2, 3 and 4 positions.  It
    then skips each size s in 2..m-1 where fewer than s positions have at most
    s values, or where m - s <= 3 and fewer than u - s values are held by at
    most m - s positions, and takes the whole step, of size m and union U, as
    the hit when no smaller size has one; a step of one or two positions has
    no size in 2..m-1 and skips the counts.  A skipped size holds no hit: take a
    hit S, |S| = s and |N'(S)| <= s.  Every position of S has at most s
    values, so at least s positions do.  T = U less N'(S) has at least u - s
    values, and no position of S holds any of them, so each is held by at
    most m - s positions.  Both counts hold at s, so s is not skipped.  Sizes
    are still tried in increasing order and each walked size by the same
    walk, so the (size, lex)-first hit, witness included, is the one the
    plain enumeration of :func:`.oracle.oracle_hall_scan` finds.

    A step over more than :data:`MATCHING_CUTOFF` positions whose size-1 pass
    has no hit takes a maximum matching of the residual images instead of going
    on to size 2.  Call a set S of positions *tight* when its residual image
    N'(S) has exactly |S| values.  If the matching leaves a position uncovered,
    the Hall condition fails, here and in every later step (a complete matching
    of what a tight set leaves, joined with one of the tight set, would be
    complete), so the scan goes on as above and returns its own (size,
    lex)-first witness; a step of more than ``ENUMERATION_CAP`` positions
    raises :class:`.SizeCapError` instead of walking.  Each later step over
    more than :data:`MATCHING_CUTOFF` positions tries the matching again and
    fails again, at polynomial cost, so the scan need not remember the
    failure.  If the matching covers every position, all later blocks are
    read off it, and they are the scan's blocks in the scan's order.
    The matching puts |S| values of N'(S) on S, so S is tight exactly when
    every value of N'(S) is matched into S: S reaches no unmatched value and is
    closed under successors (p -> q when N'(p) holds the value matched to q).
    So the positions that reach an unmatched value along these alternating
    edges lie in no tight set and form the non-critical last block (none when
    every value is matched); among the others the tight sets are the
    successor-closed unions of strongly connected components (SCCs), and the
    minimal ones are the sink SCCs.  Tight sets are closed under union and
    intersection, so distinct minimal ones are disjoint.  The scan's (size,
    lex)-first hit is a minimal tight set of least size, and lex order on
    disjoint sets of one size compares their least members, so the hit is the
    smallest sink SCC, ties going to the least position.  Taking a sink SCC S
    out strikes exactly the values matched into S; the rest keeps its matching,
    its unmatched values and its SCCs, since no edge leaves S.  So each next
    block is the smallest SCC all of whose successors are taken, ties again
    going to the least position: the smallest closure, within what remains, of
    a remaining position, which is how :func:`_matching_completion` finds it.
    A tight position reaches no position of the last block, and the blocks
    taken are closed under successors, so that closure is the position's
    whole closure less the values taken, and the last block's residual image
    is its members' images less them.
    """
    n = len(image_bits)
    indices = list(range(n))
    images = list(image_bits)
    taken = struck = 0
    block_bits: list[int] = []
    residual_bits: list[int] = []
    while indices:
        keep = ~struck
        for k, b in enumerate(images):
            b &= keep
            if b & (b - 1) == 0:
                wbits = 1 << indices[k]
                if not b:
                    return wbits | taken
                block_bits.append(wbits)
                residual_bits.append(b)
                taken |= wbits
                struck |= b
                del indices[k], images[k]
                break
        else:
            res = [b & keep for b in images] if struck else images
            if len(res) > MATCHING_CUTOFF:
                rest = _matching_completion(indices, res)
                if rest is not None:
                    return tuple(block_bits + rest[0]), tuple(residual_bits + rest[1])
                check_size_cap("partition scan", len(res), ENUMERATION_CAP)
            combo, img = _first_fit_counted(res)
            if combo is None:  # the whole rest: the last block
                block_bits.append(((1 << n) - 1) ^ taken)
                residual_bits.append(img)
                break
            wbits = 0
            for k in combo:
                wbits |= 1 << indices[k]
            block_bits.append(wbits)
            residual_bits.append(img)
            taken |= wbits
            struck |= img
            images = [b for i, b in zip(indices, images) if not wbits >> i & 1]
            indices = [i for i in indices if not wbits >> i & 1]
    return tuple(block_bits), tuple(residual_bits)


def _matching_completion(indices, res):
    # The blocks left in a step, as ``(block_bits, residual_bits)`` over the
    # domain positions ``indices``, from a complete matching of their residual
    # images ``res``; ``None`` when there is none.  Local position k stands for
    # ``indices[k]``; hall_scan's docstring gives the argument.
    matching = complete_matching(res)
    if matching is None:
        return None
    match, _, matched = matching
    # ``closure[k]``: the images of the positions k reaches along alternating
    # edges, its own included (Warshall on bitsets); k reaches j when it holds
    # ``match[j]``.
    closure = res
    for j, bit in enumerate(match):
        cj = closure[j]
        closure = [c | cj if c & bit else c for c in closure]
    # Positions reaching an unmatched value form the last block, the others
    # are tight; ``taken`` holds the values of the tight blocks read off.
    tight = []
    last = last_img = taken = 0
    for k, c in enumerate(closure):
        if c & ~matched:
            last |= 1 << indices[k]
            last_img |= res[k]
        else:
            tight.append(k)
    blocks: list[int] = []
    residuals: list[int] = []
    while tight:
        # The smallest closure left is a sink SCC; its least position comes first.
        _, k = min([((closure[k] & ~taken).bit_count(), k) for k in tight])
        img = closure[k] & ~taken
        taken |= img
        blocks.append(sum([1 << indices[q] for q in tight if match[q] & img]))
        residuals.append(img)
        tight = [q for q in tight if not match[q] & img]
    if last:
        blocks.append(last)
        residuals.append(last_img & ~taken)
    return blocks, residuals


def complete_matching(res):
    """A matching that covers every position, or ``None`` if there is none.

    ``res[k]`` is the image bitset of position k.  Each position takes its
    least free value, or else an alternating path by :func:`augment`.
    Returns ``(match, owner, matched)``: ``match[k]`` is the single-bit value
    of position k, ``owner`` maps each matched value back to its position and
    ``matched`` is the union of ``match``.
    """
    match = [0] * len(res)
    owner: dict[int, int] = {}
    matched = 0
    for k, b in enumerate(res):
        v = b & ~matched
        if v:
            v &= -v
            match[k] = v
            owner[v] = k
        else:
            v = augment(res, match, owner, k, 0, ~matched)[0]
            if not v:
                return None
        matched |= v
    return match, owner, matched


def augment(res, match, owner, start, seen, goal):
    """Search breadth first from ``start`` for an alternating path into ``goal``.

    A position steps to each value of its image outside ``seen``, and a
    matched value to its ``owner``.  When the search reaches a value of
    ``goal``, each position on the path takes the value after it (``start``
    the first one) and ``match``/``owner`` are updated.  Returns the value
    reached, 0 if none, and ``seen`` together with every value visited: when
    the search fails, no position it visited reaches ``goal`` avoiding
    ``seen``.
    """
    via = {}
    layer = [start]
    while layer:
        following = []
        for p in layer:
            new = res[p] & ~seen
            seen |= new
            v = new & goal
            if v:
                reached = v = v & -v
                while True:
                    match[p], v = v, match[p]
                    owner[match[p]] = p
                    if p == start:
                        return reached, seen
                    p = via[v]
            while new:
                u = new & -new
                new ^= u
                via[u] = p
                following.append(owner[u])
        layer = following
    return 0, seen


def _first_fit_counted(res):
    # The (size, lex)-first hit of size 2 or more, as ``(combo, union)``, or
    # else ``(None, union)`` for the whole step.  Sizes the two counts of
    # hall_scan's docstring rule out are skipped, and the last size is read
    # off the union; a step of one or two positions has no size to try.
    # ``held<j>`` holds the values held by at least j positions, bit-sliced,
    # and ``few[k]`` counts the values held by at most k.
    m = len(res)
    if m <= 2:
        return None, res[0] | res[-1]
    counts = sorted(map(int.bit_count, res))
    union = held2 = held3 = held4 = 0
    for b in res:
        held4 |= held3 & b
        held3 |= held2 & b
        held2 |= union & b
        union |= b
    u = union.bit_count()
    few = (0, (union & ~held2).bit_count(), (union & ~held3).bit_count(),
           (union & ~held4).bit_count())
    for size in range(2, m):
        if counts[size - 1] > size:
            continue
        rest = m - size
        if rest <= 3 and few[rest] < u - size:
            continue
        hit = _first_fit_pruned(res, size)
        if hit is not None:
            return hit
    return None, union


def _first_fit_pruned(res, size):
    # The lex-first ``size``-combination of positions whose union of images
    # has at most ``size`` values, as ``(combo, union)``; ``None`` if none.
    # A depth-first walk: ``combo[:depth]`` is the partial combination,
    # ``union`` its union of images and ``unions[d]`` the union over
    # ``combo[:d]``.  Position ``i`` is tried at ``depth`` only while enough
    # positions follow it to fill the size.
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
    label sets; the partition reads its exit kind off the last block.
    """
    result = hall_scan(mapping.image_bits)
    if isinstance(result, int):
        return HallViolation(frozenset(mapping.x_labels_of(result)))
    block_bits, residual_bits = result
    return HallPartition(
        tuple([frozenset(mapping.x_labels_of(b)) for b in block_bits]),
        tuple([frozenset(mapping.y_labels_of(r)) for r in residual_bits]))


def check_hall(mapping: FiniteMapping) -> HallViolation | None:
    """Return a violation witness if the Hall condition fails, else ``None``."""
    result = hall_scan(mapping.image_bits)
    if isinstance(result, int):
        return HallViolation(frozenset(mapping.x_labels_of(result)))
    return None
