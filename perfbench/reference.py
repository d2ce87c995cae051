"""Reference checks that share no code with the timed path.

Mappings are plain ``{x: frozenset of y}`` dicts here.  Hall's condition,
the alldifferent kernel and the exit kind are decided with a small
augmenting-path matching (Kuhn's algorithm) instead of the subset scan the
package uses; Sudoku solutions are checked by the unit rules alone.
"""

from __future__ import annotations

DIGITS = frozenset("123456789")

_ROWS = [[r * 9 + c for c in range(9)] for r in range(9)]
_COLS = [[r * 9 + c for r in range(9)] for c in range(9)]
_BOXES = [[(3 * (b // 3) + dr) * 9 + 3 * (b % 3) + dc
           for dr in range(3) for dc in range(3)] for b in range(9)]
UNITS = _ROWS + _COLS + _BOXES


def valid_solution(puzzle: str, solution: str | None) -> bool:
    """Every unit holds 1..9 and every given of ``puzzle`` is kept."""
    if solution is None or len(solution) != 81:
        return False
    if any(p != "." and p != s for p, s in zip(puzzle, solution)):
        return False
    return all({solution[i] for i in unit} == DIGITS for unit in UNITS)


def _augment(x, images, owner, seen, banned) -> bool:
    for y in images[x]:
        if y in seen or y == banned:
            continue
        seen.add(y)
        holder = owner.get(y)
        if holder is None or _augment(holder, images, owner, seen, banned):
            owner[y] = x
            return True
    return False


def max_matching(images: dict) -> dict:
    """A maximum matching as ``{y: x}``."""
    owner: dict = {}
    for x in images:
        _augment(x, images, owner, set(), None)
    return owner


def hall_holds(images: dict) -> bool:
    """Hall's condition holds iff a matching covers the whole domain."""
    return len(max_matching(images)) == len(images)


def single_block(images: dict) -> bool:
    """Whether the whole domain is the only critical set.

    That holds iff a full matching uses up the entire image and the digraph
    x -> owner(y) for y in F(x) is strongly connected (Dulmage-Mendelsohn).
    """
    owner = max_matching(images)
    if len(owner) != len(images) or image_size(images, images) != len(images):
        return False
    forward = {x: {owner[y] for y in img} for x, img in images.items()}
    backward: dict = {x: set() for x in images}
    for x, targets in forward.items():
        for t in targets:
            backward[t].add(x)
    start = next(iter(images))
    return all(len(_reach(start, edges)) == len(images) for edges in (forward, backward))


def _reach(start, edges) -> set:
    seen, todo = {start}, [start]
    while todo:
        for nxt in edges[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def image_size(images: dict, members) -> int:
    out: set = set()
    for x in members:
        out |= images[x]
    return len(out)


def matching_kernel(images: dict) -> dict:
    """``y`` is in the kernel image of ``x`` iff a full matching uses x -> y.

    All images are empty when no full matching exists.
    """
    owner = max_matching(images)
    if len(owner) != len(images):
        return {x: frozenset() for x in images}
    match = {x: y for y, x in owner.items()}
    kernel = {}
    for x, img in images.items():
        keep = {match[x]}
        for y in img:
            if y == match[x]:
                continue
            # Fix x -> y: x's old value is freed, and whoever held y must be
            # re-matched without y.
            trial = dict(owner)
            del trial[match[x]]
            holder = trial.get(y)
            trial[y] = x
            if holder is None or _augment(holder, images, trial, {y}, y):
                keep.add(y)
        kernel[x] = frozenset(keep)
    return kernel


def witness_ok(images: dict, witness) -> bool:
    """A violation witness is a nonempty domain subset with a smaller image."""
    return (bool(witness) and all(x in images for x in witness)
            and image_size(images, witness) < len(witness))


def selection_ok(images: dict, xs: tuple, values: tuple) -> bool:
    """Distinct values, each taken from its own element's image."""
    return (tuple(xs) == tuple(images) and len(set(values)) == len(values)
            and all(v in images[x] for x, v in zip(xs, values)))


def blocks_ok(images: dict, blocks) -> bool:
    """The blocks are nonempty, pairwise disjoint and cover the domain."""
    seen: set = set()
    for block in blocks:
        if not block or seen & block:
            return False
        seen |= block
    return seen == set(images)
