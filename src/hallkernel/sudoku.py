"""9x9 Sudoku as per-unit alldifferent propagation.

A grid splits into populated cells (the givens) and unpopulated cells, each
of which carries a markup: the digits not already given in its row, column
or block.  Every one of the 27 units induces a set-valued mapping from its
unpopulated cells to their markups, and intersecting each markup with the
unit mapping's alldifferent kernel is exactly the preemptive-set / pigeonhole
style of candidate elimination.  :func:`propagate` runs that to a global
fixpoint across all units, promoting cells whose markup collapses to a
single digit; :func:`solve` adds depth-first search on top.  Propagation
and search run ``kernel_bits`` on 9-bit candidate masks (bit ``d`` for digit
``d``); the candidates of a :class:`SudokuGrid` stay sets of digits, built
only at the public boundary.  A unit's kernel depends only on its tuple of
open-cell masks, so :func:`solve` memoises kernels by that tuple for the
duration of one call, up to ``KERNEL_MEMO_CAP`` entries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .mappings import DomainError, FiniteMapping, bit_indices
from .kernel import kernel_bits
from .kernel import alldifferent_kernel  # wrapped by perfbench/run.py's TRACED

Cell = tuple[int, int]

DIGITS = frozenset(range(1, 10))

#: The most unit kernels one :func:`solve` call keeps memoised.  The memo is
#: emptied when it reaches this size, which bounds it at a few MB: an entry,
#: a key tuple and a kernel list of up to nine masks each, takes about 400
#: bytes.
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


@dataclass(frozen=True)
class Unit:
    """One row, column or block: nine cells that must hold nine distinct digits."""

    kind: str
    index: int
    cells: tuple[Cell, ...]

    def __str__(self) -> str:
        return f"{self.kind} {self.index}"


def _build_units() -> tuple[tuple[Unit, ...], tuple[Unit, ...], tuple[Unit, ...]]:
    rows = tuple(Unit("row", r, tuple((r, c) for c in range(1, 10)))
                 for r in range(1, 10))
    columns = tuple(Unit("column", c, tuple((r, c) for r in range(1, 10)))
                    for c in range(1, 10))
    blocks = []
    for b in range(9):
        r0, c0 = 3 * (b // 3) + 1, 3 * (b % 3) + 1
        cells = tuple((r0 + dr, c0 + dc) for dr in range(3) for dc in range(3))
        blocks.append(Unit("block", b + 1, cells))
    return rows, columns, tuple(blocks)


ROWS, COLUMNS, BLOCKS = _build_units()
ALL_UNITS: tuple[Unit, ...] = ROWS + COLUMNS + BLOCKS

ALL_CELLS: tuple[Cell, ...] = tuple((r, c) for r in range(1, 10) for c in range(1, 10))


def _units_by_cell() -> tuple[dict[Cell, tuple[Unit, ...]], dict[Cell, int]]:
    # Each cell's units in ``ALL_UNITS`` order, and the same units as a
    # bitmask with bit ``u`` standing for ``ALL_UNITS[u]``.
    units: dict[Cell, tuple[Unit, ...]] = dict.fromkeys(ALL_CELLS, ())
    bits = dict.fromkeys(ALL_CELLS, 0)
    for u, unit in enumerate(ALL_UNITS):
        for cell in unit.cells:
            units[cell] += (unit,)
            bits[cell] |= 1 << u
    return units, bits


UNITS_BY_CELL, UNIT_BITS_BY_CELL = _units_by_cell()

#: The 20 other cells sharing a row, column or block with a given cell.
NEIGHBORS: dict[Cell, frozenset] = {
    cell: frozenset(c for u in UNITS_BY_CELL[cell] for c in u.cells) - {cell}
    for cell in ALL_CELLS
}


@dataclass
class SudokuGrid:
    """Givens plus the candidate digits of every unpopulated cell.

    :func:`propagate` and :func:`solve` never mutate a grid they are given;
    they return a new one.  Two grids compare equal when both the givens and
    the candidates agree.
    """

    givens: dict[Cell, int] = field(default_factory=dict)
    candidates: dict[Cell, set[int]] = field(default_factory=dict)

    def copy(self) -> "SudokuGrid":
        return SudokuGrid(dict(self.givens),
                          {c: set(v) for c, v in self.candidates.items()})

    @property
    def is_complete(self) -> bool:
        return not self.candidates

    def __str__(self) -> str:
        return render(self)


def grid_cells(text: str) -> list[str]:
    """One character per cell; whitespace and the ``|-+`` of :func:`render` skipped."""
    return [ch for ch in text if not ch.isspace() and ch not in "|-+"]


def parse_grid(text: str) -> SudokuGrid:
    """Read a grid from 81 significant characters; ``.`` and ``0`` are blanks.

    Layout is ignored (see :func:`grid_cells`), so one-line and 9x9 layouts
    parse, and so does the output of :func:`render`.  A wrong length, a stray
    character or a duplicated given within a unit raises :class:`GridError`
    naming the offending cell; markups are computed before returning, so an
    immediately contradictory grid raises :class:`Contradiction`.
    """
    chars = grid_cells(text)
    if len(chars) != 81:
        raise GridError(f"expected 81 cells, got {len(chars)}")
    givens: dict[Cell, int] = {}
    for idx, ch in enumerate(chars):
        cell = (idx // 9 + 1, idx % 9 + 1)
        if ch in ".0":
            continue
        if ch not in "123456789":
            raise GridError(f"bad character {ch!r} at cell {cell}")
        givens[cell] = int(ch)
    for unit in ALL_UNITS:
        seen: dict[int, Cell] = {}
        for cell in unit.cells:
            digit = givens.get(cell)
            if digit is None:
                continue
            if digit in seen:
                raise GridError(
                    f"duplicate given {digit} in {unit} at cell {cell}")
            seen[digit] = cell
    return compute_markups(SudokuGrid(givens, {}))


def compute_markups(grid: SudokuGrid) -> SudokuGrid:
    """Rebuild every unpopulated cell's candidates from the givens alone."""
    candidates: dict[Cell, set[int]] = {}
    for cell in ALL_CELLS:
        if cell in grid.givens:
            continue
        cand = set(DIGITS)
        for other in NEIGHBORS[cell]:
            cand.discard(grid.givens.get(other, 0))
        if not cand:
            raise Contradiction(f"cell {cell} has no admissible digit",
                                cells=(cell,))
        candidates[cell] = cand
    return SudokuGrid(dict(grid.givens), candidates)


def unit_mapping(grid: SudokuGrid, unit: Unit) -> FiniteMapping:
    """The unit's unpopulated cells mapped to their candidate digits."""
    xs = [c for c in unit.cells if c in grid.candidates]
    if not xs:
        raise DomainError(f"{unit} has no unpopulated cells")
    digits = sorted(set().union(*(grid.candidates[c] for c in xs)))
    return FiniteMapping.from_dict({c: grid.candidates[c] for c in xs},
                                   y_order=digits)


def propagate(grid: SudokuGrid, *, max_sweeps: int | None = None) -> SudokuGrid:
    """Intersect candidates with per-unit alldifferent kernels to a fixpoint.

    One sweep visits the units in order (rows, then columns, then blocks); a
    cell whose candidates collapse to one digit is promoted to a given at
    once, striking the digit from its neighbors' candidates.  Units are
    revisited only while something they see has changed, which leaves the
    fixpoint untouched because kernel filtering is idempotent.  Raises
    :class:`Contradiction` when a unit admits no alldifferent assignment or a
    candidate set runs empty; the input grid is never mutated.
    """
    givens = dict(grid.givens)
    masks = _candidate_masks(grid)
    _propagate_masks(givens, masks, {}, max_sweeps)
    return SudokuGrid(givens, {cell: set(bit_indices(m)) for cell, m in masks.items()})


def _candidate_masks(grid: SudokuGrid) -> dict[Cell, int]:
    return {c: sum(1 << d for d in digits) for c, digits in grid.candidates.items()}


def _propagate_masks(givens: dict, masks: dict, memo: dict,
                     max_sweeps: int | None = None) -> None:
    # propagate() on masks, in place.  ``memo`` maps a unit's tuple of open
    # cell masks to its kernel_bits result; the kernel depends on nothing
    # else, so one memo serves every unit and every branch of one search.
    # Bit u of ``dirty`` marks ALL_UNITS[u] for a visit.
    dirty = (1 << len(ALL_UNITS)) - 1
    sweeps = 0
    while dirty and (max_sweeps is None or sweeps < max_sweeps):
        sweeps += 1
        for u, unit in enumerate(ALL_UNITS):
            bit = 1 << u
            if not dirty & bit:
                continue
            dirty ^= bit
            cells = [c for c in unit.cells if c in masks]
            if not cells:
                continue
            key = tuple(masks[c] for c in cells)
            kernel = memo.get(key)
            if kernel is None:
                if len(memo) >= KERNEL_MEMO_CAP:
                    memo.clear()
                kernel = memo[key] = kernel_bits(key)
            if isinstance(kernel, int):
                raise Contradiction(
                    f"{unit} admits no alldifferent assignment", unit=unit,
                    cells=(cells[i] for i in bit_indices(kernel)))
            singles = []
            for cell, old, new in zip(cells, key, kernel):
                if new != old:
                    masks[cell] = new
                    dirty |= UNIT_BITS_BY_CELL[cell] & ~bit
                if new & (new - 1) == 0:
                    singles.append(cell)
            dirty |= _promote(givens, masks, singles)


def _promote(givens: dict, masks: dict, cells) -> int:
    # Turn single-candidate cells into givens, cascading through neighbors;
    # returns the bits of the units that saw a change.
    dirty = 0
    queue = deque(cells)
    while queue:
        cell = queue.popleft()
        mask = masks.pop(cell, 0)
        if not mask:
            continue
        givens[cell] = digit = mask.bit_length() - 1
        dirty |= UNIT_BITS_BY_CELL[cell]
        for other in NEIGHBORS[cell]:
            cand = masks.get(other, 0)
            if not cand >> digit & 1:
                continue
            masks[other] = cand = cand & ~(1 << digit)
            if not cand:
                raise Contradiction(
                    f"cell {other} has no admissible digit", cells=(other,))
            if cand & (cand - 1) == 0:
                queue.append(other)
            dirty |= UNIT_BITS_BY_CELL[other]
    return dirty


def solve(grid: SudokuGrid) -> SudokuGrid | None:
    """Propagate, then search depth-first; ``None`` when no completion exists.

    Branches on a cell with the fewest candidates (row-major on ties), trying
    digits in ascending order and propagating after each tentative
    assignment.  The search runs on 9-bit candidate masks and builds the
    solution grid once, at the end.  Unit kernels are memoised for the
    duration of one call, at most ``KERNEL_MEMO_CAP`` of them at a time.
    """
    givens = _solve_masks(dict(grid.givens), _candidate_masks(grid), {})
    return None if givens is None else SudokuGrid(givens, {})


def _solve_masks(givens: dict, masks: dict, memo: dict) -> dict | None:
    # solve() on masks: the completed givens, or None.  Each branch works on
    # its own copies, since _propagate_masks works in place.
    try:
        _propagate_masks(givens, masks, memo)
    except Contradiction:
        return None
    if not masks:
        return givens
    cell = min(masks, key=lambda c: (masks[c].bit_count(), c))
    for digit in bit_indices(masks[cell]):
        solution = _solve_masks(dict(givens), masks | {cell: 1 << digit}, memo)
        if solution is not None:
            return solution
    return None


def is_solved(grid: SudokuGrid) -> bool:
    """Complete, with every unit holding exactly the digits 1..9."""
    if not grid.is_complete:
        return False
    return all({grid.givens[c] for c in unit.cells} == DIGITS
               for unit in ALL_UNITS)


def render(grid: SudokuGrid) -> str:
    """Pretty 9x9 text with block separators; unpopulated cells print ``.``."""
    lines = []
    for r in range(1, 10):
        row = []
        for c in range(1, 10):
            row.append(str(grid.givens.get((r, c), ".")))
            if c in (3, 6):
                row.append("|")
        lines.append(" ".join(row))
        if r in (3, 6):
            lines.append("------+-------+------")
    return "\n".join(lines)


def grid_line(grid: SudokuGrid) -> str:
    """The 81-character single-line form; unpopulated cells print ``.``."""
    return "".join(str(grid.givens.get(cell, ".")) for cell in ALL_CELLS)
