"""9x9 Sudoku as per-unit alldifferent propagation.

A grid splits into populated cells (the givens) and unpopulated cells, each
of which carries a markup: the digits not already given in its row, column
or block.  Every one of the 27 units induces a set-valued mapping from its
unpopulated cells to their markups, and intersecting each markup with the
unit mapping's alldifferent kernel is exactly the preemptive-set / pigeonhole
style of candidate elimination.  :func:`propagate` runs that to a global
fixpoint across all units, promoting cells whose markup collapses to a
single digit; :func:`solve` adds depth-first search on top.  Inside, cells
are slots 0..80 in row-major order: markup, propagation and search keep a
digit and a 9-bit candidate mask (bit ``d`` for digit ``d``) per slot in two
81-int lists, 0 meaning none, and ``(row, column)`` labels and sets of digits
exist only at the public boundary.  Every grid enters through one
conversion: a cell listed nowhere is open with all nine digits, and the
givens are struck from every open cell through the 27 units' masks of given
digits, so a markup is what an unlisted cell comes out as.  Propagation
keeps the units still to visit as a 27-bit mask and walks only those, in
sweep order (rows, columns, blocks).  A unit whose kernel is its tuple of
masks itself (one block of two or more cells) changes nothing; :func:`solve`
and :func:`propagate` mark such tuples for one call, up to ``KERNEL_MEMO_CAP``
of them, so that a repeat visit ends at the lookup.  No kernel is cached:
every elimination and every contradiction comes from the visit that applies
it.  A search branch promotes its digit itself and re-propagates from the
units that promotion changed.
"""

from __future__ import annotations

from collections import deque

from .mappings import DomainError, FiniteMapping, _Record, bit_indices
from .kernel import kernel_bits
from .kernel import alldifferent_kernel  # wrapped by perfbench/run.py's TRACED

Cell = tuple[int, int]

DIGITS = frozenset(range(1, 10))
_DIGIT_BITS = 0x3FE  # bits 1..9, one per digit

#: The most unchanged-unit keys one :func:`solve` or :func:`propagate` call
#: keeps marked.  The memo is emptied when it reaches this size, which bounds
#: it under 6 MB.  An entry is one key tuple of at most nine masks: 112 bytes
#: at nine by ``sys.getsizeof``, plus 28 for each mask no other object holds
#: and its slot in the set, about 360 bytes in all (``tracemalloc`` over
#: 16,384 keys of nine distinct masks).
KERNEL_MEMO_CAP = 1 << 14


class GridError(ValueError):
    """The grid text or its givens are structurally invalid."""


class Contradiction(Exception):
    """No digit assignment can complete the grid from here.

    ``unit`` names the unit whose cells cannot be filled with distinct
    digits, when one is known; ``cells`` is the witnessing set of cells.
    """

    def __init__(self, message: str, *, unit: "Unit | None" = None, cells=()):
        super().__init__(message)
        self.unit = unit
        self.cells = frozenset(cells)


class Unit(_Record):
    """One row, column or block: nine cells that must hold nine distinct digits."""

    __slots__ = __match_args__ = ("kind", "index", "cells")

    def __init__(self, kind: str, index: int, cells: tuple[Cell, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "cells", cells)

    def __str__(self) -> str:
        return f"{self.kind} {self.index}"


ROWS = tuple([Unit("row", r, tuple([(r, c) for c in range(1, 10)])) for r in range(1, 10)])
COLUMNS = tuple([Unit("column", c, tuple([(r, c) for r in range(1, 10)]))
                 for c in range(1, 10)])
BLOCKS = tuple([Unit("block", b + 1, tuple([(b // 3 * 3 + dr, b % 3 * 3 + dc)
                                            for dr in range(1, 4) for dc in range(1, 4)]))
                for b in range(9)])
ALL_UNITS: tuple[Unit, ...] = ROWS + COLUMNS + BLOCKS

#: Every cell, in slot order: ``ALL_CELLS[i]`` is the label of slot ``i``.
ALL_CELLS: tuple[Cell, ...] = tuple([(r, c) for r in range(1, 10) for c in range(1, 10)])
_SLOT_OF = {cell: i for i, cell in enumerate(ALL_CELLS)}
_UNIT_SLOTS = tuple([tuple([_SLOT_OF[cell] for cell in unit.cells]) for unit in ALL_UNITS])


def _build_tables():
    # One pass over the units: per slot, its units as bits (bit ``u`` for
    # ``ALL_UNITS[u]``), its row, column and block as unit indices, and the
    # 20 other slots sharing a unit with it.
    unit_bits = [0] * 81
    units = [[] for _ in range(81)]
    seen = [0] * 81
    for u, slots in enumerate(_UNIT_SLOTS):
        members = sum(1 << i for i in slots)
        for i in slots:
            unit_bits[i] |= 1 << u
            units[i].append(u)
            seen[i] |= members
    return tuple(unit_bits), tuple([tuple(u) for u in units]), tuple(
        [tuple([j for j in bit_indices(s & ~(1 << i))]) for i, s in enumerate(seen)])


_UNIT_BITS, _SLOT_UNITS, _NEIGHBOR_SLOTS = _build_tables()
_ALL_UNIT_BITS = (1 << len(ALL_UNITS)) - 1


class SudokuGrid(_Record):
    """Givens plus the candidate digits of unpopulated cells.

    A cell that is neither a given nor a key of ``candidates`` is unpopulated
    with all nine digits, so a grid of givens alone stands for its markups,
    and a grid is complete when every cell is given.
    :func:`propagate` and :func:`solve` never mutate a grid they are given;
    they return a new one.  Two grids compare equal when both the givens and
    the candidates agree.  A grid is mutable, so it is not hashable.
    """

    __slots__ = __match_args__ = ("givens", "candidates")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, givens: dict[Cell, int] | None = None,
                 candidates: dict[Cell, set[int]] | None = None):
        self.givens = {} if givens is None else givens
        self.candidates = {} if candidates is None else candidates

    @property
    def is_complete(self) -> bool:
        return _SLOT_OF.keys() <= self.givens.keys()

    def __str__(self) -> str:
        return render(self)


def grid_cells(text: str) -> list[str]:
    """One character per cell; whitespace and the ``|-+`` of :func:`render` skipped."""
    return [ch for ch in text if not ch.isspace() and ch not in "|-+"]


def parse_grid(text: str) -> SudokuGrid:
    """Read a grid from 81 significant characters; ``.`` and ``0`` are blanks.

    Layout is ignored (see :func:`grid_cells`), so one-line and 9x9 layouts
    parse, and so does the output of :func:`render`.  Each blank gets its
    markup, as in :func:`compute_markups`.  A wrong length, a stray character
    or a duplicated given within a unit (the first in unit order) raises
    :class:`GridError` naming the offending cell; else a blank left with no
    digit raises :class:`Contradiction` naming the first in slot order.
    """
    chars = grid_cells(text)
    if len(chars) != 81:
        raise GridError(f"expected 81 cells, got {len(chars)}")
    for i, ch in enumerate(chars):
        if ch not in ".0123456789":
            raise GridError(f"bad character {ch!r} at cell {ALL_CELLS[i]}")
    givens = {ALL_CELLS[i]: int(ch) for i, ch in enumerate(chars) if ch not in ".0"}
    try:
        return compute_markups(SudokuGrid(givens))
    except Contradiction:  # every repeated given lands here, as a clash
        for unit in ALL_UNITS:
            digits = [givens.get(cell) for cell in unit.cells]
            for k, digit in enumerate(digits):
                if digit and digit in digits[:k]:
                    raise GridError(f"duplicate given {digit} in {unit} "
                                    f"at cell {unit.cells[k]}") from None
        raise


def compute_markups(grid: SudokuGrid) -> SudokuGrid:
    """The grid's givens, each other cell with the digits given in none of its units."""
    return _grid(*_slots(SudokuGrid(grid.givens)))


def unit_mapping(grid: SudokuGrid, unit: Unit) -> FiniteMapping:
    """The unit's open cells mapped to their candidate digits.

    The grid enters as in :func:`propagate`: a cell listed nowhere has its
    markup, and the givens are struck from every open cell.  The codomain is
    their digits, which :meth:`.FiniteMapping.from_dict` sorts.  Public as
    the paper's view of one unit, for callers and demos; the solver runs on
    bitsets and never builds it.
    """
    masks = _slots(grid)[1]
    images = {c: bit_indices(m) for c in unit.cells if (m := masks[_SLOT_OF[c]])}
    if not images:
        raise DomainError(f"{unit} has no unpopulated cells")
    return FiniteMapping.from_dict(images)


def propagate(grid: SudokuGrid, *, max_sweeps: int | None = None) -> SudokuGrid:
    """Intersect candidates with per-unit alldifferent kernels to a fixpoint.

    One sweep visits the units in order (rows, then columns, then blocks); a
    cell whose candidates collapse to one digit is promoted to a given at
    once, striking the digit from its neighbors' candidates.  Units are
    revisited only while something they see has changed, which leaves the
    fixpoint untouched because kernel filtering is idempotent.  The tuples of
    masks whose kernel changes nothing (one block) are marked for the call,
    so that a repeat visit ends at a lookup; no kernel is cached.  Raises
    :class:`Contradiction` when a unit admits no alldifferent assignment or a
    candidate set runs empty; the input grid is never mutated.  ``max_sweeps``
    caps the sweeps: ``None`` or an ``int`` of at least 0, else
    :class:`ValueError`.
    """
    if max_sweeps is not None and not (type(max_sweeps) is int and max_sweeps >= 0):
        raise ValueError(f"max_sweeps must be None or an int >= 0, not {max_sweeps!r}")
    givens, masks = _slots(grid)
    _propagate_masks(givens, masks, set(), max_sweeps)
    return _grid(givens, masks)


def _slots(grid: SudokuGrid) -> tuple[list[int], list[int]]:
    # Every grid's one way into the engine: its givens and candidate masks as
    # 81-slot lists.  A cell listed nowhere is open with all nine digits, and
    # the givens are struck from the open slots, in slot order, through the
    # units' masks of given digits.  A cell off the grid, a given not an int in
    # 1..9, a candidate not in 1..9 or a cell with both a given and candidates
    # is a GridError; two neighbouring givens with one digit, or an open cell
    # left with no digit, contradict.  Each given is checked for its digit,
    # then for candidates, then for a clash, before the next, and all before
    # any strike; a clash names the first neighbour in slot order.
    for cell in (*grid.candidates, *grid.givens):
        if cell not in _SLOT_OF:
            raise GridError(f"cell {cell!r} is not on the grid")
    givens = [0] * 81
    masks = [_DIGIT_BITS] * 81
    for cell, digits in grid.candidates.items():
        try:  # 5.0 is in DIGITS but cannot shift, and fails as a non-digit does
            if not DIGITS.issuperset(digits):
                raise TypeError
            masks[_SLOT_OF[cell]] = sum({1 << d for d in digits})
        except TypeError:
            raise GridError(f"cell {cell} has candidates outside 1..9: {digits!r}") from None
    used = [0] * len(ALL_UNITS)  # each unit's mask of given digits
    for cell, digit in grid.givens.items():
        _check_given(cell, digit)
        if cell in grid.candidates:
            raise GridError(f"cell {cell} has both a given and candidates")
        i = _SLOT_OF[cell]
        bit = 1 << digit
        row, column, block = _SLOT_UNITS[i]
        if (used[row] | used[column] | used[block]) & bit:
            j = next(j for j in _NEIGHBOR_SLOTS[i] if givens[j] == digit)
            raise Contradiction(f"cells {ALL_CELLS[j]} and {cell} both hold {digit}",
                                cells=(ALL_CELLS[j], cell))
        givens[i] = digit
        masks[i] = 0
        used[row] |= bit
        used[column] |= bit
        used[block] |= bit
    for i, digit in enumerate(givens):
        if not digit:
            row, column, block = _SLOT_UNITS[i]
            masks[i] &= ~(used[row] | used[column] | used[block])
            if not masks[i]:
                raise Contradiction(f"cell {ALL_CELLS[i]} has no admissible digit",
                                    cells=(ALL_CELLS[i],))
    return givens, masks


def _check_given(cell: Cell, digit) -> None:
    # The one check of a given's digit, for _slots and grid_line.
    if type(digit) is not int or digit not in DIGITS:
        raise GridError(f"cell {cell} has given {digit!r}, not a digit 1..9")


def _grid(givens: list, masks) -> SudokuGrid:
    # The inverse of _slots: a grid with labelled givens and sets of digits.
    return SudokuGrid(
        {ALL_CELLS[i]: d for i, d in enumerate(givens) if d},
        {ALL_CELLS[i]: set(bit_indices(m)) for i, m in enumerate(masks) if m})


def _propagate_masks(givens: list, masks: list, memo: set,
                     max_sweeps: int | None = None, dirty: int = _ALL_UNIT_BITS) -> None:
    # propagate() on slots, in place.  ``memo`` holds the tuples of open cell
    # masks whose kernel_bits result is the tuple itself; the kernel depends
    # on nothing else, so one memo serves every unit and every branch of one
    # search.  Bit u of ``dirty`` marks unit u for a visit; a unit left out
    # must already be at the fixpoint (visited since it last changed).  A
    # sweep visits the dirty units in unit order: each next the lowest dirty
    # bit above the unit just visited, so a unit marked behind it waits for
    # the next sweep.  A key of two or more masks that is one block has no
    # single (that cell would be a critical set of size 1, a block of its
    # own) and keeps every candidate, so its visit ends there, and once it
    # is marked a repeat ends at the lookup.
    sweeps = 0
    while dirty and (max_sweeps is None or sweeps < max_sweeps):
        sweeps += 1
        above = -1  # every bit at or above the next unit to visit
        while ahead := dirty & above:
            bit = ahead & -ahead
            above = -(bit << 1)
            dirty ^= bit
            u = bit.bit_length() - 1
            key = tuple([m for i in _UNIT_SLOTS[u] if (m := masks[i])])
            if not key or key in memo:
                continue
            kernel = kernel_bits(key)
            if kernel is key and len(key) > 1:
                if len(memo) >= KERNEL_MEMO_CAP:
                    memo.clear()
                memo.add(key)
                continue
            open_slots = [i for i in _UNIT_SLOTS[u] if masks[i]]
            if isinstance(kernel, int):
                unit = ALL_UNITS[u]
                raise Contradiction(
                    f"{unit} admits no alldifferent assignment", unit=unit,
                    cells=(ALL_CELLS[open_slots[k]] for k in bit_indices(kernel)))
            singles = []
            for i, old, new in zip(open_slots, key, kernel):
                if new != old:
                    masks[i] = new
                    dirty |= _UNIT_BITS[i] & ~bit
                if new & (new - 1) == 0:
                    singles.append(i)
            if singles:
                dirty |= _promote(givens, masks, singles, bit)


def _promote(givens: list, masks: list, slots, visited: int) -> int:
    # Turn single-candidate slots into givens, cascading through neighbors;
    # returns the bits of the units that saw a change.  ``visited`` is 0 for a
    # search branch, else the bit of the unit whose kernel found ``slots``:
    # each one's digit is in no other kernel image of that unit, so promoting
    # it changes nothing there, and a cascade that strikes one of the unit's
    # cells marks it as a neighbour's unit.  Every slot is dequeued once, with
    # a one-bit mask: the starting slots are distinct singles, a cascade
    # queues a slot only when a strike takes it from two or more candidates
    # to one, and a single loses its digit only by raising Contradiction.
    # (An empty mask would give digit -1, and ``cand >> -1`` raises.)
    dirty = 0
    queue = deque(slots)
    while queue:
        i = queue.popleft()
        mask, masks[i] = masks[i], 0
        givens[i] = digit = mask.bit_length() - 1
        dirty |= _UNIT_BITS[i] & ~visited
        for j in _NEIGHBOR_SLOTS[i]:
            cand = masks[j]
            if not cand >> digit & 1:
                continue
            masks[j] = cand = cand & ~(1 << digit)
            if not cand:
                raise Contradiction(
                    f"cell {ALL_CELLS[j]} has no admissible digit", cells=(ALL_CELLS[j],))
            if cand & (cand - 1) == 0:
                queue.append(j)
            dirty |= _UNIT_BITS[j]
    return dirty


def solve(grid: SudokuGrid) -> SudokuGrid | None:
    """Propagate, then search depth-first; ``None`` when no completion exists.

    Branches on a cell with the fewest candidates (row-major on ties), trying
    digits in ascending order; each tentative digit is promoted at once, as
    propagation would, and propagated from the units it changed.  The search
    runs on cell slots and builds the solution grid once, at the end.  The
    tuples of masks whose kernel changes nothing are marked for the duration
    of one call, at most ``KERNEL_MEMO_CAP`` of them at a time, and every
    other kernel is computed at its visit.  A hand-built grid that is not a
    grid of digits 1..9 raises :class:`GridError`, as in :func:`propagate`.
    """
    try:
        givens = _solve_masks(*_slots(grid), set())
    except Contradiction:  # from _slots: clashing givens or a cell left empty
        return None
    return None if givens is None else _grid(givens, ())


def _solve_masks(givens: list, masks: list, memo: set,
                 dirty: int = _ALL_UNIT_BITS) -> list | None:
    # solve() on slots: the completed givens, or None.  Each branch works on
    # its own copies, since _propagate_masks and _promote work in place.  The
    # branch slot is the first with the fewest candidates; at the fixpoint no
    # open slot has one, so the first with two ends the search.  A branch
    # promotes its digit itself, as the slot's unit kernels would (a single
    # is a critical set of its own), and a contradiction there fails the
    # digit.  The parent's propagation ended with no unit dirty, so the
    # branch re-propagates from the units the promotion changed only: every
    # other unit is still at the fixpoint, and the filters reach the same
    # fixpoint or contradiction in any order.
    try:
        _propagate_masks(givens, masks, memo, dirty=dirty)
    except Contradiction:
        return None
    i, fewest = None, 10
    for j, mask in enumerate(masks):
        if mask:
            count = mask.bit_count()
            if count < fewest:
                if count == 1:
                    raise RuntimeError(f"slot {j} has one candidate at a fixpoint")
                i, fewest = j, count
                if count == 2:
                    break
    if i is None:
        return givens
    for digit in bit_indices(masks[i]):
        branch_givens, branch_masks = givens[:], masks[:]
        branch_masks[i] = 1 << digit
        try:
            dirty = _promote(branch_givens, branch_masks, (i,), 0)
        except Contradiction:
            continue
        solution = _solve_masks(branch_givens, branch_masks, memo, dirty)
        if solution is not None:
            return solution
    return None


def is_solved(grid: SudokuGrid) -> bool:
    """Complete, with every unit holding exactly the digits 1..9."""
    return grid.is_complete and all(
        {grid.givens.get(c) for c in unit.cells} == DIGITS for unit in ALL_UNITS)


def render(grid: SudokuGrid) -> str:
    """Pretty 9x9 text with block separators; unpopulated cells print ``.``."""
    line = grid_line(grid)
    rows = [" | ".join(" ".join(line[i:i + 3]) for i in range(r, r + 9, 3))
            for r in range(0, 81, 9)]
    return "\n------+-------+------\n".join("\n".join(rows[b:b + 3]) for b in (0, 3, 6))


def grid_line(grid: SudokuGrid) -> str:
    """The 81-character single-line form; unpopulated cells print ``.``.

    A given that is not an int in 1..9 raises :class:`GridError`, as in
    :func:`propagate`; :func:`render` and ``str(grid)`` print this line.
    """
    for cell, digit in grid.givens.items():
        _check_given(cell, digit)
    return "".join(str(grid.givens.get(cell, ".")) for cell in ALL_CELLS)
