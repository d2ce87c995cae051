import copy
import hashlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallkernel import DomainError, check_hall, sudoku
from hallkernel.oracle import oracle_kernel
from hallkernel.sudoku import (
    ALL_CELLS,
    ALL_UNITS,
    BLOCKS,
    COLUMNS,
    DIGITS,
    ROWS,
    Contradiction,
    GridError,
    SudokuGrid,
    Unit,
    compute_markups,
    grid_line,
    is_solved,
    parse_grid,
    propagate,
    render,
    solve,
    unit_mapping,
)

from conftest import INKALA, blanked, canonical_grid_text


EASTER_MONSTER = ("1.......2.9.4...5...6...7...5.9.3.......7.......85..4.7....."
                  "6...3...9.8...2.....1")
AI_ESCARGOT = ("1....7.9..3..2...8..96..5....53..9...1..8...26....4...3......"
               "1..4......7..7...3..")


def put(chars, r, c, digit):
    chars[(r - 1) * 9 + (c - 1)] = str(digit)


def naked_pair_text():
    # Row 1: givens 4..9 in columns 1..6; a 3 in column 7 and one in column 8
    # leaves (1,7) and (1,8) with {1,2} and (1,9) with {1,2,3}.
    chars = ["."] * 81
    for c, digit in zip(range(1, 7), range(4, 10)):
        put(chars, 1, c, digit)
    put(chars, 5, 7, 3)
    put(chars, 8, 8, 3)
    return "".join(chars)


def pigeonhole_text():
    # (1,1) and (1,9) each see 1,2,3,4 in the row and 6,7,8,9 in the column,
    # pinning both markups to exactly {5}.
    chars = ["."] * 81
    for c, digit in zip(range(2, 6), range(1, 5)):
        put(chars, 1, c, digit)
    for r, digit in zip(range(2, 6), range(6, 10)):
        put(chars, r, 1, digit)
    for r, digit in zip(range(6, 10), range(6, 10)):
        put(chars, r, 9, digit)
    return "".join(chars)


class TestUnits:
    def test_27_units_cover_the_grid(self):
        assert len(ALL_UNITS) == 27
        assert len(ROWS) == len(COLUMNS) == len(BLOCKS) == 9
        covered = set()
        for unit in ALL_UNITS:
            assert len(unit.cells) == 9
            covered.update(unit.cells)
        assert covered == set(ALL_CELLS)


class TestSlots:
    def test_unit_slots_spell_out_the_units(self):
        assert [tuple(ALL_CELLS[i] for i in slots) for slots in sudoku._UNIT_SLOTS] \
            == [unit.cells for unit in ALL_UNITS]

    def test_neighbor_slots_and_unit_bits_follow_the_units(self):
        for i, cell in enumerate(ALL_CELLS):
            units = [u for u, unit in enumerate(ALL_UNITS) if cell in unit.cells]
            sharing = {c for u in units for c in ALL_UNITS[u].cells} - {cell}
            # Ascending, which fixes the cell a promotion contradiction names.
            assert len(sharing) == 20
            assert [ALL_CELLS[j] for j in sudoku._NEIGHBOR_SLOTS[i]] == sorted(sharing)
            assert sudoku._UNIT_BITS[i] == sum(1 << u for u in units)
            assert sudoku._UNIT_BITS[i].bit_count() == 3

    def test_grid_undoes_slots(self):
        grid = parse_grid(naked_pair_text())
        assert sudoku._grid(list(grid._digits), list(grid._masks)) == grid
        assert SudokuGrid(grid.givens, grid.candidates) == grid

    def test_cells_listed_nowhere_get_their_markup(self):
        # A cell neither given nor in ``candidates`` is open with all nine
        # digits less its neighbours' givens, never dropped.
        assert is_solved(solve(SudokuGrid()))
        one_given = SudokuGrid({(1, 1): 5})
        marked = propagate(one_given)
        assert len(marked.candidates) == 80
        assert marked == compute_markups(one_given)
        grid = parse_grid(INKALA)
        unlisted = SudokuGrid(grid.givens, {c: v for c, v in grid.candidates.items()
                                            if c != (1, 2)})
        assert unlisted == grid and is_solved(solve(unlisted))

    def test_an_unlisted_cell_with_no_digit_left_contradicts(self):
        # Row 1 holds 1..8 and column 9 holds the 9, so (1, 9) has no digit.
        with pytest.raises(Contradiction) as info:
            SudokuGrid({**{(1, c): c for c in range(1, 9)}, (5, 9): 9})
        assert str(info.value) == "cell (1, 9) has no admissible digit"
        assert info.value.cells == {(1, 9)}

    def test_dead_cells_are_named_in_slot_order(self):
        # Both listed cells lose their one digit; the first slot is named,
        # whatever the order of ``candidates``.
        with pytest.raises(Contradiction, match=r"^cell \(1, 1\) has no admissible digit$"):
            SudokuGrid({(1, 2): 1, (9, 8): 2}, {(9, 9): {2}, (1, 1): {1}})


class TestParseGrid:
    def test_all_blank(self):
        grid = parse_grid("." * 81)
        assert grid.givens == {}
        assert all(cand == set(range(1, 10)) for cand in grid.candidates.values())

    def test_zero_means_blank_and_whitespace_ignored(self):
        text = canonical_grid_text()
        pretty = "\n".join(text[i:i + 9] for i in range(0, 81, 9))
        assert parse_grid(pretty).givens == parse_grid(text).givens
        assert parse_grid("0" * 81).givens == {}

    @pytest.mark.parametrize("text", [canonical_grid_text(), INKALA,
                                      blanked(canonical_grid_text(), [(1, 1), (5, 5)])])
    def test_rendered_grid_parses_back(self, text):
        grid = parse_grid(text)
        assert parse_grid(render(grid)) == grid

    def test_canonical_grid_is_complete_and_valid(self):
        grid = parse_grid(canonical_grid_text())
        assert grid.is_complete
        assert is_solved(grid)

    def test_a_grid_is_complete_when_every_cell_is_given(self):
        # A cell listed nowhere is open, so a grid of a few givens is not complete.
        assert not SudokuGrid().is_complete
        assert not SudokuGrid({(1, 1): 5}).is_complete
        texts = [INKALA, "." * 81, canonical_grid_text(),
                 blanked(canonical_grid_text(), [(1, 1), (5, 5)])]
        results = [propagate(parse_grid(text)) for text in texts]
        assert [grid.is_complete for grid in results] == [False, False, True, True]
        for grid in results + [parse_grid(text) for text in texts]:
            assert grid.is_complete == (not grid.candidates)

    def test_missing_givens_without_candidates_are_not_solved(self):
        # Cells listed nowhere are open, so is_complete and is_solved are False.
        assert not is_solved(SudokuGrid())
        givens = dict(parse_grid(canonical_grid_text()).givens)
        del givens[(5, 5)]
        assert not is_solved(SudokuGrid(givens))

    def test_wrong_length(self):
        with pytest.raises(GridError):
            parse_grid("." * 80)

    def test_bad_character(self):
        with pytest.raises(GridError):
            parse_grid("x" + "." * 80)

    def test_duplicate_given_in_a_unit(self):
        chars = ["."] * 81
        put(chars, 1, 1, 5)
        put(chars, 1, 7, 5)
        with pytest.raises(GridError, match="row 1"):
            parse_grid("".join(chars))

    def test_duplicate_is_named_in_unit_order_after_an_earlier_clash(self):
        # In slot order the column-1 clash of the 5s comes first; in unit
        # order row 5's two 7s do.
        chars = ["."] * 81
        for r, c, digit in [(1, 1, 5), (5, 1, 5), (5, 2, 7), (5, 8, 7)]:
            put(chars, r, c, digit)
        with pytest.raises(GridError) as info:
            parse_grid("".join(chars))
        assert str(info.value) == "duplicate given 7 in row 5 at cell (5, 8)"

    def test_parsed_and_hand_built_grids_obey_one_rule(self):
        # A line and its givens, hand-built in a shuffled order, build equal
        # grids or fail with the same error: a repeat is named in unit order
        # whatever the order of the givens.
        outcomes = Counter()
        rng = random.Random(42)
        for line in _one_rule_lines(rng, 300):
            givens = [(cell, int(ch)) for cell, ch in zip(ALL_CELLS, line) if ch != "."]
            rng.shuffle(givens)
            results = []
            for build in (lambda: parse_grid(line), lambda: SudokuGrid(dict(givens))):
                try:
                    results.append(build())
                except (GridError, Contradiction) as exc:
                    results.append((type(exc).__name__, str(exc)))
            assert results[0] == results[1], line
            outcomes[results[0][0] if isinstance(results[0], tuple) else "grid"] += 1
        assert min(outcomes["grid"], outcomes["GridError"], outcomes["Contradiction"]) > 50


def _one_rule_lines(rng, count):
    # Blankings of the canonical grid with 20-60 blanks.  Every third has one
    # or two digits put in blanks, most of them repeats; every third has a
    # cell left with no digit and no repeat: its column given in full, and
    # its digit given in its row outside its block, that digit's copies in
    # the new given's column and block blanked.
    text = canonical_grid_text()
    lines = []
    for k in range(count):
        chars = list(blanked(text, rng.sample(ALL_CELLS, rng.randint(20, 60))))
        if k % 3 == 1:
            for i in rng.sample([i for i, ch in enumerate(chars) if ch == "."],
                                rng.randint(1, 2)):
                chars[i] = str(rng.randint(1, 9))
        elif k % 3 == 2:
            r, c = rng.choice(ALL_CELLS)
            digit = text[(r - 1) * 9 + c - 1]
            for row in range(1, 10):
                put(chars, row, c, text[(row - 1) * 9 + c - 1])
            put(chars, r, c, ".")
            other = rng.choice([col for col in range(1, 10) if (col - 1) // 3 != (c - 1) // 3])
            block = BLOCKS[(r - 1) // 3 * 3 + (other - 1) // 3]
            for row, col in COLUMNS[other - 1].cells + block.cells:
                if text[(row - 1) * 9 + col - 1] == digit:
                    put(chars, row, col, ".")
            put(chars, r, other, digit)
        lines.append("".join(chars))
    return lines


class TestComputeMarkups:
    def test_single_given_excludes_along_its_units(self):
        chars = ["."] * 81
        put(chars, 1, 1, 7)
        grid = parse_grid("".join(chars))
        assert grid.candidates[(1, 5)] == set(range(1, 10)) - {7}
        assert grid.candidates[(5, 5)] == set(range(1, 10))

    def test_complete_grid_has_nothing_to_compute(self):
        grid = parse_grid(canonical_grid_text())
        assert compute_markups(grid).candidates == {}

    def test_eight_row_givens_force_the_ninth(self):
        chars = ["."] * 81
        for c in range(1, 9):
            put(chars, 1, c, c)
        grid = parse_grid("".join(chars))
        assert grid.candidates[(1, 9)] == {9}


class TestUnitMapping:
    def test_packages_candidates(self):
        grid = parse_grid(naked_pair_text())
        mapping = unit_mapping(grid, ROWS[0])
        assert mapping.x_labels == ((1, 7), (1, 8), (1, 9))
        assert mapping.images_by_label() == {
            (1, 7): {1, 2}, (1, 8): {1, 2}, (1, 9): {1, 2, 3}}

    def test_fully_populated_unit_is_signalled(self):
        grid = parse_grid(canonical_grid_text())
        with pytest.raises(DomainError):
            unit_mapping(grid, ROWS[0])

    def test_a_cell_off_the_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match=re.escape("cell (0, 0) of row 1 is not on")):
            unit_mapping(parse_grid("." * 81), Unit("row", 1, ((0, 0),)))

    def test_singleton_candidate(self):
        chars = ["."] * 81
        for c in range(1, 9):
            put(chars, 1, c, c)
        grid = parse_grid("".join(chars))
        mapping = unit_mapping(grid, ROWS[0])
        assert mapping.images_by_label() == {(1, 9): {9}}

    def test_reads_the_grid_as_propagate_does(self):
        # A cell listed nowhere has its markup, and a given is struck from a
        # listed cell, as the engine reads both.
        givens_only = SudokuGrid({(1, 1): 5})
        assert unit_mapping(givens_only, ROWS[0]).images_by_label() == {
            (1, c): DIGITS - {5} for c in range(2, 10)}
        listed = SudokuGrid({(1, 1): 5}, {(1, 2): {5, 6}})
        marked = propagate(listed, max_sweeps=0)
        assert marked.candidates[(1, 2)] == {6}
        assert unit_mapping(listed, ROWS[0]).images_by_label() == {
            c: marked.candidates[c] for c in ROWS[0].cells if c in marked.candidates}


class TestPropagate:
    def test_naked_pair_promotes_the_odd_cell(self):
        grid = propagate(parse_grid(naked_pair_text()), max_sweeps=1)
        assert grid.givens[(1, 9)] == 3
        assert grid.candidates[(1, 7)] == {1, 2}
        assert grid.candidates[(1, 8)] == {1, 2}

    def test_solved_grid_is_a_fixpoint(self):
        grid = parse_grid(canonical_grid_text())
        assert propagate(grid) == grid

    def test_pigeonhole_contradiction(self):
        grid = parse_grid(pigeonhole_text())
        assert grid.candidates[(1, 1)] == {5}
        assert grid.candidates[(1, 9)] == {5}
        with pytest.raises(Contradiction) as info:
            propagate(grid)
        assert info.value.cells

    def test_open_cell_without_candidates_is_a_contradiction(self):
        # A hand-built grid can list an open cell with no candidate, which
        # parse_grid never makes; it must not vanish from the grid.
        grid = parse_grid(naked_pair_text())
        with pytest.raises(Contradiction) as info:
            SudokuGrid(grid.givens, {**grid.candidates, (5, 5): set()})
        assert (5, 5) in info.value.cells

    def test_candidates_lose_their_neighbours_givens(self):
        # A hand-built grid may leave a neighbouring given's digit among a
        # cell's candidates; parse_grid never does.
        grid = SudokuGrid({(1, 1): 5}, {c: set(range(1, 10)) for c in ALL_CELLS[1:]})
        candidates = propagate(grid, max_sweeps=0).candidates
        neighbours = {ALL_CELLS[j] for j in sudoku._NEIGHBOR_SLOTS[0]}
        assert len(neighbours) == 20 and {(1, 9), (9, 1), (3, 3)} <= neighbours
        for cell, digits in candidates.items():
            assert digits == set(range(1, 10)) - ({5} if cell in neighbours else set())
        solution = solve(grid)
        assert is_solved(solution) and solution.givens[(1, 1)] == 5
        with pytest.raises(Contradiction, match="no admissible digit") as info:
            SudokuGrid({(1, 1): 5}, {(1, 2): {5}})
        assert info.value.cells == {(1, 2)}

    def test_neighbouring_givens_with_one_digit_are_a_grid_error(self):
        # A repeated given is named as parse_grid names it, and no cells go
        # with it: the message names the unit and the second cell.
        with pytest.raises(GridError) as info:
            SudokuGrid({(1, 1): 5, (2, 3): 5}, {(9, 9): {1, 2}})
        assert str(info.value) == "duplicate given 5 in block 1 at cell (2, 3)"
        assert not hasattr(info.value, "cells")

    @pytest.mark.parametrize("cell, given, candidates", [
        ((1, 1), 12, None),
        ((1, 1), 0, None),
        ((1, 1), None, {10}),
        ((1, 1), None, {0, 5}),
        ((0, 0), None, {1}),
        ((1, 1), 5, {6}),
        ((1, 1), 5.0, None),
        ((1, 1), True, None),
        ((1, 1), None, {5.0}),
        ((1, 1), None, {True, 3}),
        ((1, 1), None, 5),
    ], ids=["given-12", "given-0", "candidates-10", "candidates-0-5", "cell-off-the-grid",
            "given-and-candidates", "given-5.0", "given-True", "candidates-5.0",
            "candidates-True", "candidates-not-iterable"])
    def test_impossible_hand_built_cell_is_a_grid_error(self, cell, given, candidates):
        # parse_grid never builds these; building one must name the cell
        # rather than make a grid that breaks it or fail somewhere inside.
        listed = {c: set(range(1, 10)) for c in ALL_CELLS if c != cell}
        if candidates is not None:
            listed[cell] = candidates
        with pytest.raises(GridError, match=re.escape(f"cell {cell} ")):
            SudokuGrid({} if given is None else {cell: given}, listed)

    def test_candidates_may_be_one_shot_iterators(self):
        # Each cell's candidates are read once, so an iterator builds the
        # grid that the same digits as a set build.
        assert SudokuGrid(candidates={(1, 2): iter([3])}).candidates[(1, 2)] == {3}
        grid = propagate(parse_grid(INKALA))
        listed = {c: iter(v) for c, v in grid.candidates.items()}
        assert listed and SudokuGrid(grid.givens, listed) == SudokuGrid(
            grid.givens, grid.candidates) == grid

    def test_a_candidate_listed_twice_counts_once(self):
        text = ("53..7....6..195....98....6.8...6...34..8.3..17...2...6"
                ".6....28....419..5....8..79")
        parsed = parse_grid(text)
        assert parsed.candidates[(1, 3)] == {1, 2, 4}
        grid = SudokuGrid(parsed.givens, {**parsed.candidates, (1, 3): {4}})
        repeated = SudokuGrid(parsed.givens, {**parsed.candidates, (1, 3): [4, 4]})
        assert repeated == grid and repeated.candidates[(1, 3)] == {4}
        assert propagate(repeated) == propagate(grid)
        solution = solve(repeated)
        assert is_solved(solution) and solution == solve(grid)

    @pytest.mark.parametrize("givens, message", [
        ({(1, 1): 5, (1, 4): 5, (2, 2): 12}, "duplicate given 5 in row 1 at cell (1, 4)"),
        ({(2, 2): 12, (1, 1): 5, (1, 4): 5}, "cell (2, 2) has given 12, not a digit 1..9"),
        ({(3, 5): 7, (1, 1): 5, (3, 9): 7}, "duplicate given 7 in row 3 at cell (3, 9)"),
        ({(2, 6): 4, (9, 6): 4}, "duplicate given 4 in column 6 at cell (9, 6)"),
        ({(7, 7): 9, (9, 8): 9}, "duplicate given 9 in block 9 at cell (9, 8)"),
        ({(1, 1): 5, (5, 5): 5, (1, 5): 5}, "duplicate given 5 in row 1 at cell (1, 5)"),
        ({(5, 5): 5, (1, 1): 5, (1, 5): 5}, "duplicate given 5 in row 1 at cell (1, 5)"),
        ({(1, 1): 5, (1, 4): 5, (9, 9): 3}, "duplicate given 5 in row 1 at cell (1, 4)"),
        ({(9, 9): 3, (1, 1): 5, (1, 4): 5}, "cell (9, 9) has both a given and candidates"),
        ({(1, 1): 1, (2, 2): 1, (1, 5): True}, "duplicate given 1 in block 1 at cell (2, 2)"),
    ], ids=["clash-then-12", "12-then-clash", "row", "column", "block",
            "two-units-first-slot", "two-units-reordered", "clash-then-both",
            "both-then-clash", "clash-then-True"])
    def test_hand_built_givens_fail_in_order(self, givens, message):
        # The first given that breaks a rule names the error, in the order of
        # the givens; a clash names the first repeat in unit order.
        with pytest.raises(GridError) as info:
            SudokuGrid(dict(givens), {(9, 9): {1, 3}})
        assert str(info.value) == message

    def test_input_grid_is_not_mutated(self):
        grid = parse_grid(naked_pair_text())
        before = copy.deepcopy(grid)
        propagate(grid)
        assert grid == before

    def test_idempotent_and_monotone(self):
        rng = random.Random(11)
        text = canonical_grid_text()
        for _ in range(10):
            cells = rng.sample(ALL_CELLS, 45)
            grid = parse_grid(blanked(text, cells))
            result = propagate(grid)
            assert propagate(result) == result
            for cell, cand in result.candidates.items():
                assert cand <= grid.candidates[cell]
            assert set(grid.givens) <= set(result.givens)
            assert all(result.givens[c] == d for c, d in grid.givens.items())

    def test_partial_sweeps_reach_the_same_fixpoint(self):
        rng = random.Random(23)
        text = canonical_grid_text()
        for _ in range(5):
            grid = parse_grid(blanked(text, rng.sample(ALL_CELLS, 50)))
            full = propagate(grid)
            for sweeps in (1, 2):
                assert propagate(propagate(grid, max_sweeps=sweeps)) == full

    @pytest.mark.parametrize("bad", [-1, 1.0, True, "2"])
    def test_max_sweeps_must_be_a_count(self, bad):
        grid = parse_grid(naked_pair_text())
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            propagate(grid, max_sweeps=bad)

    def test_units_stay_hall_consistent(self):
        rng = random.Random(5)
        text = canonical_grid_text()
        grid = parse_grid(blanked(text, rng.sample(ALL_CELLS, 50)))
        result = propagate(grid)
        for unit in ALL_UNITS:
            if any(c in result.candidates for c in unit.cells):
                assert check_hall(unit_mapping(result, unit)) is None


def seeded_blankings():
    """The first 30 seeded blankings of the canonical grid, 40 to 64 blanks each."""
    rng = random.Random(2610)
    text = canonical_grid_text()
    return [parse_grid(blanked(text, rng.sample(ALL_CELLS, rng.randint(40, 64))))
            for _ in range(30)]


class TestGreatestFixpoint:
    """``propagate`` deletes all that the unit kernels delete, in any unit order.

    The corpus is sized by the oracle, which enumerates every selection of each
    open unit: 30 blankings of up to 64 cells.
    """

    def test_open_units_equal_their_oracle_kernels(self):
        open_units = 0
        for grid in seeded_blankings():
            result = propagate(grid)
            assert all(len(digits) > 1 for digits in result.candidates.values())
            for unit in ALL_UNITS:
                if any(c in result.candidates for c in unit.cells):
                    mapping = unit_mapping(result, unit)
                    assert oracle_kernel(mapping).images == tuple(
                        [frozenset(result.candidates[c]) for c in mapping.x_labels])
                    open_units += 1
        assert open_units > 500

    def test_unit_order_does_not_matter(self, monkeypatch):
        rng = random.Random(27)
        grids = seeded_blankings()
        expected = [propagate(grid) for grid in grids]
        unit_slots, units, unit_bits = sudoku._UNIT_SLOTS, ALL_UNITS, sudoku._UNIT_BITS
        for grid, result in zip(grids, expected):
            order = rng.sample(range(27), 27)
            monkeypatch.setattr(sudoku, "_UNIT_SLOTS", tuple([unit_slots[u] for u in order]))
            monkeypatch.setattr(sudoku, "ALL_UNITS", tuple([units[u] for u in order]))
            monkeypatch.setattr(sudoku, "_UNIT_BITS", tuple(
                [sum([1 << v for v, u in enumerate(order) if bits >> u & 1])
                 for bits in unit_bits]))
            assert propagate(grid) == result


class TestSolve:
    def test_single_blank_is_restored(self):
        text = canonical_grid_text()
        grid = parse_grid(blanked(text, [(4, 6)]))
        solution = solve(grid)
        assert grid_line(solution) == text

    def test_empty_grid_reaches_some_valid_solution(self):
        solution = solve(parse_grid("." * 81))
        assert solution is not None
        assert is_solved(solution)

    def test_heavily_blanked_canonical_grid(self):
        rng = random.Random(99)
        text = canonical_grid_text()
        grid = parse_grid(blanked(text, rng.sample(ALL_CELLS, 55)))
        solution = solve(grid)
        assert solution is not None
        assert is_solved(solution)
        for cell, digit in grid.givens.items():
            assert solution.givens[cell] == digit

    def test_17_given_grid_needs_real_search(self):
        rng = random.Random(3)
        text = canonical_grid_text()
        grid = parse_grid(blanked(text, rng.sample(ALL_CELLS, 64)))
        solution = solve(grid)
        assert solution is not None
        assert is_solved(solution)
        for cell, digit in grid.givens.items():
            assert solution.givens[cell] == digit

    def test_unsolvable_grid(self):
        assert solve(parse_grid(pigeonhole_text())) is None

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(1, 10)), st.lists(st.booleans(), min_size=81, max_size=81))
    def test_any_blanking_of_a_relabelled_grid_is_solved(self, digits, blank):
        text = "".join(str(digits[int(ch) - 1]) for ch in canonical_grid_text())
        grid = parse_grid(blanked(text, [c for c, b in zip(ALL_CELLS, blank) if b]))
        solution = solve(grid)
        assert solution is not None
        assert is_solved(solution)
        assert all(solution.givens[c] == d for c, d in grid.givens.items())

    @pytest.mark.parametrize("text", [EASTER_MONSTER, AI_ESCARGOT],
                             ids=["easter-monster", "ai-escargot"])
    def test_search_heavy_grids(self, text, monkeypatch):
        # Deep backtracking, through marks made on branches that failed.
        grid = parse_grid(text)
        solution = solve(grid)
        assert solution is not None and is_solved(solution)
        assert all(solution.givens[c] == d for c, d in grid.givens.items())
        monkeypatch.setattr(sudoku, "KERNEL_MEMO_CAP", 1)
        assert solve(grid) == solution

    def test_no_kernel_memo_outlives_a_solve(self, monkeypatch):
        calls = []
        kernel_bits = sudoku.kernel_bits
        monkeypatch.setattr(sudoku, "kernel_bits",
                            lambda bits: calls.append(bits) or kernel_bits(bits))
        grid = parse_grid(INKALA)
        counts = []
        for _ in range(2):
            calls.clear()
            solve(grid)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 745
        # A memo holding one entry at a time still has to recompute repeats.
        monkeypatch.setattr(sudoku, "KERNEL_MEMO_CAP", 1)
        calls.clear()
        solve(grid)
        assert len(calls) > counts[0]

    def test_kernel_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(sudoku, "KERNEL_MEMO_CAP", 8)
        grid = parse_grid(INKALA)
        memo = set()
        givens = sudoku._solve_masks(list(grid._digits), list(grid._masks), memo)
        assert sudoku._grid(givens, (0,) * 81) == solve(grid)
        assert 0 < len(memo) <= 8


class TestBranchPropagation:
    """A branch re-propagated from its cell's units ends as a full re-propagation does."""

    @staticmethod
    def _propagated(givens, masks, dirty):
        try:
            sudoku._propagate_masks(givens, masks, set(), dirty=dirty)
        except Contradiction as exc:
            return str(exc)
        return givens, masks

    def _branches(self, givens, masks, outcomes, budget):
        # Every branch of the search below a propagated node, depth first,
        # each propagated from its cell's units and from all 27.
        open_slots = [i for i, m in enumerate(masks) if m]
        if not open_slots:
            return
        fewest = min(open_slots, key=lambda i: (masks[i].bit_count(), i))
        for digit in sudoku.bit_indices(masks[fewest]):
            if sum(outcomes.values()) >= budget:
                return
            results = []
            for dirty in (sudoku._UNIT_BITS[fewest], sudoku._ALL_UNIT_BITS):
                branch = masks[:]
                branch[fewest] = 1 << digit
                results.append(self._propagated(givens[:], branch, dirty))
            assert results[0] == results[1]
            outcomes[isinstance(results[0], str)] += 1
            if not isinstance(results[0], str):
                self._branches(*results[0], outcomes, budget)

    def test_cell_units_suffice(self):
        # Inkala's grid, the empty grid, blankings of a solved grid, and
        # blankings with two random extra givens, which often leave no
        # completion; at most 150 branches a grid.
        rng = random.Random(1472)
        text = canonical_grid_text()
        texts = [INKALA, "." * 81]
        texts += [blanked(text, rng.sample(ALL_CELLS, rng.randint(50, 70))) for _ in range(20)]
        for _ in range(40):
            chars = list(blanked(text, rng.sample(ALL_CELLS, rng.randint(40, 60))))
            for i in rng.sample([i for i, ch in enumerate(chars) if ch == "."], 2):
                chars[i] = str(rng.randint(1, 9))
            texts.append("".join(chars))
        outcomes = Counter()
        for t in texts:
            try:
                grid = parse_grid(t)
                givens, masks = list(grid._digits), list(grid._masks)
                sudoku._propagate_masks(givens, masks, set())
            except (GridError, Contradiction):
                continue
            self._branches(givens, masks, outcomes, sum(outcomes.values()) + 150)
        assert outcomes[True] > 60 and outcomes[False] > 2000


class TestBranchChoice:
    """The search branches on the first slot with the fewest candidates."""

    def test_over_the_transcript_corpus(self, monkeypatch):
        # Each propagation that returns is followed by the search's first
        # branch below it, if any: the branched slot promoted on its own,
        # then, unless that contradicts, a re-propagation from the units the
        # promotion changed, the slot's three among them.
        events, kernels = [], {}
        propagate_masks = sudoku._propagate_masks
        promote = sudoku._promote
        kernel_bits = sudoku.kernel_bits

        def propagated(givens, masks, memo, max_sweeps=None, dirty=sudoku._ALL_UNIT_BITS):
            events.append(("dirty", dirty))
            propagate_masks(givens, masks, memo, max_sweeps, dirty)
            events.append(("fixpoint", masks[:]))
            # A fixpoint of every unit kernel, not only of the units visited.
            for slots in sudoku._UNIT_SLOTS:
                key = tuple([masks[i] for i in slots if masks[i]])
                if key and key not in kernels:
                    kernels[key] = list(kernel_bits(key)) == list(key)
                assert not key or kernels[key]

        def promoted(givens, masks, slots, visited):
            if not visited:  # propagation passes the bit of the unit it visits
                events.append(("branch", tuple(slots)))
            return promote(givens, masks, slots, visited)

        monkeypatch.setattr(sudoku, "_propagate_masks", propagated)
        monkeypatch.setattr(sudoku, "_promote", promoted)
        fixpoints = branches = promoted = repropagated = 0
        for grid in _transcript_corpus():
            events.clear()
            solve(grid)
            for (kind, value), following in zip(events, events[1:] + [(None, None)]):
                if kind == "fixpoint":
                    fixpoints += 1
                    open_slots = [(m.bit_count(), i) for i, m in enumerate(value) if m]
                    assert all(count > 1 for count, _ in open_slots)
                    if open_slots:
                        assert following == ("branch", (min(open_slots)[1],))
                        branches += 1
                elif kind == "branch":
                    promoted += 1
                    if following[0] == "dirty":
                        units = sudoku._UNIT_BITS[value[0]]
                        assert following[1] & units == units
                        repropagated += 1
        assert fixpoints > branches > 500
        assert promoted > repropagated > 500

    def test_one_candidate_at_a_fixpoint_is_refused(self, monkeypatch):
        monkeypatch.setattr(sudoku, "_propagate_masks", lambda *args, **kwargs: None)
        grid = parse_grid("." * 81)
        givens, masks = list(grid._digits), list(grid._masks)
        masks[40] = 1 << 3
        with pytest.raises(RuntimeError, match="slot 40 has one candidate"):
            sudoku._solve_masks(givens, masks, set())


class TestRendering:
    def test_round_trip_through_text(self):
        grid = parse_grid(naked_pair_text())
        assert parse_grid(grid_line(grid)) == grid
        assert parse_grid(render(grid).replace("|", " ").replace("-", " ")
                          .replace("+", " ")) == grid

    @pytest.mark.parametrize("given", [True, 10])
    def test_a_given_not_a_digit_is_a_grid_error(self, given):
        # Unchecked, True would print as four cells and 10 as two; no grid
        # holds one, so no printer has to check.
        with pytest.raises(GridError, match=re.escape(f"cell (1, 1) has given {given!r}")):
            SudokuGrid({(1, 1): given})

    def test_str_is_render(self):
        grid = parse_grid(naked_pair_text())
        assert str(grid) == render(grid)

    def test_render_shape(self):
        lines = render(parse_grid("." * 81)).splitlines()
        assert len(lines) == 11
        assert lines[3] == lines[7] == "------+-------+------"


def _propagation_record(grid, max_sweeps):
    try:
        result = propagate(grid, max_sweeps=max_sweeps)
    except Contradiction as exc:
        return str(exc), str(exc.unit), sorted(exc.cells)
    return grid_line(result), sorted((c, sorted(v)) for c, v in result.candidates.items())


def _transcript_corpus():
    # Inkala's grid, the empty grid, 40 blankings with 20-70 blanks, and 28
    # grids with two random extra givens that parse; 10 of those 28 have no
    # completion.
    rng = random.Random(2009)
    text = canonical_grid_text()
    texts = [INKALA, "." * 81]
    texts += [blanked(text, rng.sample(ALL_CELLS, rng.randint(20, 70))) for _ in range(40)]
    grids = [parse_grid(t) for t in texts]
    while len(grids) < 70:
        chars = list(blanked(text, rng.sample(ALL_CELLS, rng.randint(30, 60))))
        for cell in rng.sample([i for i, ch in enumerate(chars) if ch == "."], 2):
            chars[cell] = str(rng.randint(1, 9))
        try:
            grids.append(parse_grid("".join(chars)))
        except (GridError, Contradiction):
            continue
    return grids


#: sha256 of the propagation and solve transcripts over the corpus above,
#: recorded with the label-level propagation (one labelled unit mapping and
#: kernel per unit visit) that the 9-bit mask propagation replaced.
SUDOKU_TRANSCRIPT_SHA256 = (
    "630c5da9c12858a988c14e1c7a28c3367c3e2d6cf6268f9cf160791652a74c1b")


def _transcript_digest():
    digest = hashlib.sha256()
    for grid in _transcript_corpus():
        records = [_propagation_record(grid, sweeps) for sweeps in (None, 1, 2)]
        solution = solve(grid)
        digest.update(repr((records, solution and grid_line(solution))).encode())
    return digest.hexdigest()


def test_mask_propagation_matches_label_level_transcript():
    assert _transcript_digest() == SUDOKU_TRANSCRIPT_SHA256


def test_transcript_holds_when_the_kernel_memo_is_cleared_at_every_miss(monkeypatch):
    monkeypatch.setattr(sudoku, "KERNEL_MEMO_CAP", 1)
    assert _transcript_digest() == SUDOKU_TRANSCRIPT_SHA256


def _kernel_keys_and_records(monkeypatch, copy):
    # The transcript corpus' propagation records and solutions, with the keys
    # kernel_bits got from propagate and from solve, in call order.  ``copy``
    # hands every kernel back as a new list, so none is its key.
    keys = []
    kernel_bits = sudoku.kernel_bits

    def recorded(bits):
        keys.append(bits)
        kernel = kernel_bits(bits)
        return list(kernel) if copy and not isinstance(kernel, int) else kernel

    monkeypatch.setattr(sudoku, "kernel_bits", recorded)
    records, propagate_keys, solve_keys = [], [], []
    for grid in _transcript_corpus():
        records.append([_propagation_record(grid, sweeps) for sweeps in (None, 1, 2)])
        propagate_keys += keys
        keys.clear()
        solution = solve(grid)
        records.append(solution and grid_line(solution))
        solve_keys += keys
        keys.clear()
    return records, propagate_keys, solve_keys


#: sha256 of ``repr`` of the keys propagate hands kernel_bits over the
#: transcript corpus, at max_sweeps None, 1 and 2; a key the memo marked
#: unchanged is not handed over again within one call, every other key is.
PROPAGATE_KEYS_SHA256 = "8484b878bc9446455649ea45627798ed7f49d259e86f1967805d55dbdbd9f4c5"


class TestVisitEndsAtTheMemo:
    """A unit whose kernel is its key changes nothing, so its visit can end there."""

    def test_propagate_keys_are_pinned(self, monkeypatch):
        _, keys, _ = _kernel_keys_and_records(monkeypatch, copy=False)
        assert len(keys) == 4051
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == PROPAGATE_KEYS_SHA256

    def test_copied_kernels_change_nothing(self, monkeypatch):
        # With every kernel a copy, no key is marked and no visit ends at the
        # memo: each walks its cells, and a repeat is computed again.  The
        # grids, the solutions and the distinct keys in first-visit order stay
        # the same.
        kernel_bits = sudoku.kernel_bits
        kept = _kernel_keys_and_records(monkeypatch, copy=False)
        copied = _kernel_keys_and_records(monkeypatch, copy=True)
        assert kept[0] == copied[0]
        for phase in (1, 2):
            assert list(dict.fromkeys(kept[phase])) == list(dict.fromkeys(copied[phase]))
            assert len(copied[phase]) >= len(kept[phase])
        one_block = [key for key in kept[2] if len(key) > 1 and kernel_bits(key) is key]
        assert len(one_block) > 0.5 * len(kept[2])
