"""The Sudoku engine commutes with the symmetries of the grid.

Transposition, band and stack permutations, rows within a band, columns
within a stack and digit relabelling map valid grids to valid grids and units
to units, so propagation's fixpoint and the search's answer must follow each
such map.  No oracle is needed: the engine is checked against itself.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hallkernel.sudoku import ALL_CELLS, Contradiction, SudokuGrid, parse_grid, propagate, solve

from conftest import INKALA, blanked, canonical_grid_text
from test_sudoku import AI_ESCARGOT, EASTER_MONSTER, pigeonhole_text


def symmetry(rng):
    """``(transpose, rows, columns, digits)``: where each row and column goes, 0-based."""
    def lines():
        outer = rng.sample(range(3), 3)
        inner = [rng.sample(range(3), 3) for _ in range(3)]
        return [3 * outer[i // 3] + inner[i // 3][i % 3] for i in range(9)]

    return rng.random() < 0.5, lines(), lines(), rng.sample(range(1, 10), 9)


def apply(symmetry, grid):
    """The image of a grid, its candidates included, under one symmetry."""
    transpose, rows, columns, digits = symmetry

    def cell(rc):
        r, c = rc[::-1] if transpose else rc
        return rows[r - 1] + 1, columns[c - 1] + 1

    return SudokuGrid({cell(rc): digits[d - 1] for rc, d in grid.givens.items()},
                      {cell(rc): {digits[d - 1] for d in ds}
                       for rc, ds in grid.candidates.items()})


def blanking(rng, wrong=False):
    """A seeded blanking of the canonical grid; ``wrong`` gives one blank a digit
    not the canonical one, which may leave no solution."""
    solution = canonical_grid_text()
    grid = parse_grid(blanked(solution, rng.sample(ALL_CELLS, rng.randint(40, 64))))
    open_cells = sorted(c for c, ds in grid.candidates.items() if len(ds) > 1)
    if wrong and open_cells:
        cell = rng.choice(open_cells)
        digit = solution[ALL_CELLS.index(cell)]
        try:
            grid = SudokuGrid({**grid.givens, cell: rng.choice(
                sorted(d for d in grid.candidates[cell] if str(d) != digit))})
        except Contradiction:
            pass
    return grid


def propagated(grid):
    try:
        return propagate(grid)
    except Contradiction:  # the cells it names may differ under a symmetry
        return None


def commutes(grid, symmetry):
    result = propagated(grid)
    expected = None if result is None else apply(symmetry, result)
    return propagated(apply(symmetry, grid)) == expected


FIXED = [INKALA, pigeonhole_text()]


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-len(FIXED), 1))
def test_the_propagation_fixpoint_commutes_with_every_symmetry(rng, choice):
    # A negative choice picks a fixed grid, 0 a blanking and 1 one with a wrong digit.
    grid = parse_grid(FIXED[choice]) if choice < 0 else blanking(rng, wrong=choice == 1)
    assert commutes(grid, symmetry(rng))


def test_the_first_301_seeded_blankings_commute_with_a_seeded_symmetry():
    # A fixpoint that misses a deletion shows on few grids: on one of these
    # 301 when a cascade in _promote stops marking the unit that found its
    # singles.
    rngs = [random.Random(seed) for seed in range(301)]
    assert [seed for seed, rng in enumerate(rngs)
            if not commutes(blanking(rng), symmetry(rng))] == []


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_solvability_is_invariant_under_every_symmetry(rng, wrong):
    grid = blanking(rng, wrong)
    assert (solve(grid) is None) == (solve(apply(symmetry(rng), grid)) is None)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([EASTER_MONSTER, AI_ESCARGOT, INKALA]),
       st.randoms(use_true_random=False))
def test_a_unique_solution_commutes_with_every_symmetry(text, rng):
    grid = parse_grid(text)
    solution = solve(grid)
    assert solution is not None and solution.is_complete
    element = symmetry(rng)
    assert solve(apply(element, grid)) == apply(element, solution)
