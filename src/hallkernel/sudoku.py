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
exist only at the public boundary.  A :class:`SudokuGrid` is checked when it
is built and holds those two lists as tuples: a cell listed nowhere is open
with all nine digits, and each given's digit leaves its 20 neighbours, as a
promoted digit does.  The engine copies a grid's tuples and builds its
results from its lists, unchecked.  Propagation keeps the units still to
visit as a 27-bit mask and walks only those, in sweep order (rows, columns,
blocks).  A unit whose kernel is its tuple of masks itself (one block of two
or more cells) changes nothing; :func:`solve` and :func:`propagate` mark such
tuples for one call, up to ``KERNEL_MEMO_CAP`` of them, so that a repeat
visit ends at the lookup.  No kernel is cached: every elimination and every
contradiction comes from the visit that applies it.  A search branch promotes
its digit itself and re-propagates from the units that promotion changed.
"""

from __future__ import annotations

from types import MappingProxyType

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
    # ``ALL_UNITS[u]``) and the 20 other slots sharing a unit with it.
    unit_bits = [0] * 81
    seen = [0] * 81
    for u, slots in enumerate(_UNIT_SLOTS):
        members = sum(1 << i for i in slots)
        for i in slots:
            unit_bits[i] |= 1 << u
            seen[i] |= members
    return tuple(unit_bits), tuple(
        [tuple([j for j in bit_indices(s & ~(1 << i))]) for i, s in enumerate(seen)])


_UNIT_BITS, _NEIGHBOR_SLOTS = _build_tables()
_ALL_UNIT_BITS = (1 << len(ALL_UNITS)) - 1


class SudokuGrid(_Record):
    """Givens plus the candidate digits of unpopulated cells, checked once.

    A cell that is neither a given nor a key of ``candidates`` is unpopulated
    with all nine digits, and each given's digit leaves its 20 neighbours, so
    a grid of givens alone stands for its markups.  Building a grid is its
    only check.  A cell off the grid, a given or candidate not an ``int`` in
    1..9 (``True`` is not), candidates not an iterable (any is read once), a
    cell with both a given and candidates or a repeated given is a
    :class:`GridError`; an unpopulated cell left with no digit, a
    :class:`Contradiction` naming the first in slot order.  Each
    given is checked for its digit, then for candidates, then for a repeat,
    before the next; a repeat is named as :func:`parse_grid` names it, the
    first in unit order over all the givens.  A grid is immutable, hashable
    and equal to a grid with the same cells.  ``givens`` and ``candidates``
    are read-only mappings in row-major order; ``candidates`` holds a
    ``frozenset`` for every unpopulated cell.
    """

    __slots__ = ("_digits", "_masks", "givens", "_candidates")
    __match_args__ = ("givens", "candidates")

    def __new__(cls, givens: dict[Cell, int] | None = None,
                candidates: dict[Cell, set[int]] | None = None) -> SudokuGrid:
        givens, candidates = givens or {}, candidates or {}
        for cell in (*candidates, *givens):
            if cell not in _SLOT_OF:
                raise GridError(f"cell {cell!r} is not on the grid")
        digits = [0] * 81
        masks = [_DIGIT_BITS] * 81
        for cell, listed in candidates.items():
            try:  # each member read once, so an iterator serves
                bits = {_digit_bit(d) for d in listed}
            except TypeError:  # not iterable
                bits = {0}
            if 0 in bits:
                raise GridError(f"cell {cell} has candidates outside 1..9: {listed!r}")
            masks[_SLOT_OF[cell]] = sum(bits)
        struck = [0] * 81  # each slot's mask of the digits given among its neighbours
        for cell, digit in givens.items():
            if not (bit := _digit_bit(digit)):
                raise GridError(f"cell {cell} has given {digit!r}, not a digit 1..9")
            if cell in candidates:
                raise GridError(f"cell {cell} has both a given and candidates")
            i = _SLOT_OF[cell]
            if struck[i] & bit:
                raise next(_repeats(givens))
            digits[i] = digit
            masks[i] = 0
            for j in _NEIGHBOR_SLOTS[i]:
                struck[j] |= bit
        for i, digit in enumerate(digits):
            if not digit:
                masks[i] &= ~struck[i]
                if not masks[i]:
                    raise Contradiction(f"cell {ALL_CELLS[i]} has no admissible digit",
                                        cells=(ALL_CELLS[i],))
        return _grid(digits, masks)

    @property
    def candidates(self) -> MappingProxyType:
        if self._candidates is None:
            object.__setattr__(self, "_candidates", MappingProxyType(
                {ALL_CELLS[i]: frozenset(bit_indices(m)) for i, m in enumerate(self._masks) if m}))
        return self._candidates

    def _key(self) -> tuple:
        return self._digits, self._masks

    def __repr__(self) -> str:
        return f"SudokuGrid(givens={dict(self.givens)!r}, candidates={dict(self.candidates)!r})"

    def __reduce__(self):
        return SudokuGrid, (dict(self.givens), dict(self.candidates))

    @property
    def is_complete(self) -> bool:
        return 0 not in self._digits

    def __str__(self) -> str:
        return render(self)


def _digit_bit(value) -> int:
    # The bit of a digit: an ``int`` in 1..9, not a ``bool``; 0 for anything else.
    return 1 << value if type(value) is int and 0 < value < 10 else 0


def _repeats(givens: dict):
    # The GridError of each repeated digit 1..9 among ``givens``, in unit order.
    for unit in ALL_UNITS:
        seen = 0
        for cell in unit.cells:
            if seen & (bit := _digit_bit(givens.get(cell))):
                yield GridError(f"duplicate given {givens[cell]} in {unit} at cell {cell}")
            seen |= bit


def grid_cells(text: str) -> list[str]:
    """One character per cell; whitespace and the ``|-+`` of :func:`render` skipped."""
    return [ch for ch in text if not ch.isspace() and ch not in "|-+"]


def parse_grid(text: str) -> SudokuGrid:
    """Read a grid from 81 significant characters; ``.`` and ``0`` are blanks.

    Layout is ignored (see :func:`grid_cells`), so one-line and 9x9 layouts
    parse, and so does the output of :func:`render`.  A wrong length or a
    stray character raises :class:`GridError`; else the result is
    ``SudokuGrid(givens)``, so each blank has its markup, and a repeated given
    or a blank left with no digit fails by that constructor's rules.
    """
    chars = grid_cells(text)
    if len(chars) != 81:
        raise GridError(f"expected 81 cells, got {len(chars)}")
    for i, ch in enumerate(chars):
        if ch not in ".0123456789":
            raise GridError(f"bad character {ch!r} at cell {ALL_CELLS[i]}")
    return SudokuGrid({ALL_CELLS[i]: int(ch) for i, ch in enumerate(chars) if ch not in ".0"})


def compute_markups(grid: SudokuGrid) -> SudokuGrid:
    """The grid's givens, each other cell with the digits given in none of its units."""
    return SudokuGrid(grid.givens)


def unit_mapping(grid: SudokuGrid, unit: Unit) -> FiniteMapping:
    """The unit's open cells mapped to their candidate digits.

    The candidates are the grid's own, as :func:`propagate` reads them.  The
    codomain is their digits, which :meth:`.FiniteMapping.from_dict` sorts.
    Public as the paper's view of one unit, for callers and demos; the
    solver runs on bitsets and never builds it.
    """
    if off := [c for c in unit.cells if c not in _SLOT_OF]:
        raise DomainError(f"cell {off[0]!r} of {unit} is not on the grid")
    masks = grid._masks
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
    candidate set runs empty; the grid was checked when it was built.
    ``max_sweeps`` caps the sweeps: ``None`` or an ``int`` of at least 0,
    else :class:`ValueError`.
    """
    if max_sweeps is not None and not (type(max_sweeps) is int and max_sweeps >= 0):
        raise ValueError(f"max_sweeps must be None or an int >= 0, not {max_sweeps!r}")
    givens, masks = list(grid._digits), list(grid._masks)
    _propagate_masks(givens, masks, set(), max_sweeps)
    return _grid(givens, masks)


def _grid(digits: list, masks) -> SudokuGrid:
    # A grid of slots that keep every rule SudokuGrid() checks, so unchecked:
    # the slots as tuples, the givens labelled once for per-cell reads, and
    # the candidates left to be labelled at their first read.
    grid = object.__new__(SudokuGrid)
    object.__setattr__(grid, "_digits", tuple(digits))
    object.__setattr__(grid, "_masks", tuple(masks))
    object.__setattr__(grid, "givens", MappingProxyType(
        {ALL_CELLS[i]: d for i, d in enumerate(digits) if d}))
    object.__setattr__(grid, "_candidates", None)
    return grid


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
    # cells marks it as a neighbour's unit.  The queue, a list walked as it
    # grows, takes every slot once, with a one-bit mask: the starting slots
    # are distinct singles, a cascade queues a slot only when a strike takes
    # it from two or more candidates to one, and a single loses its digit
    # only by raising Contradiction (an empty mask would give digit -1, and
    # ``cand >> -1`` raises).
    dirty = 0
    queue = list(slots)
    for i in queue:
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
    other kernel is computed at its visit.
    """
    givens = _solve_masks(list(grid._digits), list(grid._masks), set())
    return None if givens is None else _grid(givens, (0,) * 81)


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
    digits = grid._digits
    return all({digits[i] for i in slots} == DIGITS for slots in _UNIT_SLOTS)


def render(grid: SudokuGrid) -> str:
    """Pretty 9x9 text with block separators; unpopulated cells print ``.``."""
    line = grid_line(grid)
    rows = [" | ".join(" ".join(line[i:i + 3]) for i in range(r, r + 9, 3))
            for r in range(0, 81, 9)]
    return "\n------+-------+------\n".join("\n".join(rows[b:b + 3]) for b in (0, 3, 6))


def grid_line(grid: SudokuGrid) -> str:
    """The 81-character single-line form; unpopulated cells print ``.``."""
    return "".join([".123456789"[d] for d in grid._digits])
