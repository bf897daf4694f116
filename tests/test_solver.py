from __future__ import annotations

import random
import tracemalloc
from functools import cache, partial, reduce
from itertools import islice
from operator import or_
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wangtiles.core import WangTile, WangTileSet
from wangtiles.corpus import builtin
from wangtiles.morphism import Word2d, apply, compose, iterate
from wangtiles.solver import (
    CountTooLarge,
    _codes,
    _initial_masks,
    _neighbors,
    _propagate,
    _solutions,
    _has_surrounding,
    _tables,
    column_bytes,
    domino,
    dominoes_with_surrounding,
    harvest,
    is_valid_pattern,
    pattern_has_surrounding,
    patterns_with_surrounding,
    solve_rectangle,
    surviving_dominoes,
    violations,
)

from solver_reference import reference_solutions

U = builtin("U").payload
V = builtin("V").payload


def from_scratch_dominoes(T, direction, radius):
    """Every ordered pair, each asked afresh of pattern_has_surrounding."""
    return [
        (i, j)
        for i in range(len(T))
        for j in range(len(T))
        if pattern_has_surrounding(
            T, Word2d(((i,), (j,))) if direction == 1 else Word2d(((i, j),)), radius
        )
    ]


def brute_force_solutions(tiles, width, height):
    """Every tiling, depth first in cell-scan order (bottom row first, left to
    right, tiles ascending), each tile checked against its left and bottom
    neighbors as it is placed; so the tilings come out in canonical order."""
    out = []
    grid = []

    def extend():
        k = len(grid)
        if k == width * height:
            cols = tuple(tuple(grid[y * width + x] for y in range(height)) for x in range(width))
            out.append(Word2d(cols))
            return
        x, y = k % width, k // width
        for i, t in enumerate(tiles):
            if x and tiles[grid[k - 1]].right != t.left:
                continue
            if y and tiles[grid[k - width]].top != t.bottom:
                continue
            grid.append(i)
            extend()
            grid.pop()

    extend()
    return out


@st.composite
def small_tileset(draw):
    """Up to four distinct tiles over two or three colors: with two, many
    sets are partnered, and with three, most are not."""
    colors = st.sampled_from(draw(st.sampled_from(["ab", "abc"])))
    tile = st.builds(WangTile, colors, colors, colors, colors)
    return WangTileSet(draw(st.lists(tile, min_size=1, max_size=4, unique=True)))


def per_bit_union(tiles, over, fits):
    """Tiles j with fits(tiles[i], tiles[j]) for some i set in ``over``, one bit at a time."""
    members = [i for i in range(len(tiles)) if over >> i & 1]
    return reduce(
        or_,
        (1 << j for i in members for j, v in enumerate(tiles) if fits(tiles[i], v)),
        0,
    )


# (side of the neighbor, does tile v fit on that side of tile u?), in the
# order of a union memo entry: east, west, north, south.
DIRECTIONS = [
    ("right", lambda u, v: u.right == v.left),
    ("left", lambda u, v: u.left == v.right),
    ("top", lambda u, v: u.top == v.bottom),
    ("bottom", lambda u, v: u.bottom == v.top),
]


class TestUnionTables:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 24), st.data())
    def test_matches_per_bit_reference(self, size, data):
        colors = st.sampled_from("abc")
        tiles = data.draw(
            st.lists(
                st.builds(WangTile, colors, colors, colors, colors),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        tb = _tables(WangTileSet(tiles))
        over = data.draw(st.integers(0, (1 << size) - 1))
        assert tb.unions[over] == tuple(per_bit_union(tiles, over, fits) for _, fits in DIRECTIONS)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 24])
    def test_memo_fills_only_the_masks_asked_for(self, size):
        # Distinct tiles whose four colors spell the index in base 3.
        tiles = [
            WangTile(*("abc"[k // 3**d % 3] for d in range(4))) for k in range(size)
        ]
        T = WangTileSet(tiles)
        _tables.cache_clear()
        tb = _tables(T)
        assert len(tb.unions) == 0
        asked = {(1 << size) - 1, 1 << (size - 1), 1, 0}
        for over in sorted(asked) * 2:
            assert tb.unions[over] == tuple(
                per_bit_union(tiles, over, fits) for _, fits in DIRECTIONS
            )
        # One entry per mask asked for, holding all four directions.
        assert set(tb.unions) == asked
        assert _tables(T) is tb


def violations_per_edge(T, w):
    """Oracle: look up both tiles of every internal edge, column-major, east
    before north."""
    n1, n2 = w.shape
    out = []
    for x in range(n1):
        for y in range(n2):
            t = T[w.cell(x, y)]
            if x + 1 < n1 and t.right != T[w.cell(x + 1, y)].left:
                out.append(((x, y), (x + 1, y)))
            if y + 1 < n2 and t.top != T[w.cell(x, y + 1)].bottom:
                out.append(((x, y), (x, y + 1)))
    return out


def some_tiling(T, width, height):
    """The first tiling of the rectangle that the solver's search finds."""
    tb = _tables(T)
    masks, changed = _initial_masks(width, height, {}, tb)
    assert _propagate(masks, width, height, tb, changed)
    cells = next(_solutions(masks, width, height, tb))
    return Word2d.from_columns(
        [[cells[y * width + x].bit_length() - 1 for y in range(height)] for x in range(width)]
    )


class TestViolations:
    @pytest.mark.parametrize("name", ["U", "V", "W"])
    def test_matches_per_edge_oracle(self, name):
        T = builtin(name).payload
        rng = random.Random(sum(map(ord, name)))
        for width, height in [(1, 1), (1, 7), (7, 1), (6, 5), (9, 9)]:
            valid = some_tiling(T, width, height)
            assert list(violations(T, valid)) == [] == violations_per_edge(T, valid)
            for trial in range(20):
                cols = [list(c) for c in valid.columns]
                for _ in range(rng.randint(1, max(1, width * height // 4))):
                    cols[rng.randrange(width)][rng.randrange(height)] = rng.randrange(len(T))
                w = Word2d.from_columns(cols)
                assert list(violations(T, w)) == violations_per_edge(T, w), (width, height, trial)

    def test_every_edge_mismatched(self):
        # Two tiles that match nothing, not even themselves.
        T = WangTileSet([WangTile("a", "b", "c", "d"), WangTile("e", "f", "g", "h")])
        for width, height in [(1, 1), (1, 4), (4, 1), (3, 3)]:
            w = Word2d.from_columns([[x % 2] * height for x in range(width)])
            got = list(violations(T, w))
            assert got == violations_per_edge(T, w)
            assert len(got) == (width - 1) * height + width * (height - 1)

    @pytest.mark.parametrize("name", ["U", "V"])
    def test_mismatches_only_in_the_last_column_or_the_top_row(self, name):
        # The columns are compared whole first: a mismatch that only the last
        # column or the top row holds must still reach the per-cell scan.
        T = builtin(name).payload
        width, height = 7, 6
        valid = some_tiling(T, width, height)
        cells = [(width - 1, y) for y in range(height)] + [(x, height - 1) for x in range(width)]
        bad = 0
        for x, y in cells:
            for tile in range(len(T)):
                cols = [list(c) for c in valid.columns]
                cols[x][y] = tile
                w = Word2d.from_columns(cols)
                got = list(violations(T, w))
                assert got == violations_per_edge(T, w), (x, y, tile)
                bad += bool(got)
        assert bad > len(cells)

    def test_sets_without_byte_codes_scan_every_column(self):
        rng = random.Random(300)
        # 300 tiles over five colors: too many tiles for a byte.
        many_tiles = WangTileSet(
            WangTile(*("abcde"[k // 5**d % 5] for d in range(4))) for k in range(300)
        )
        # 150 tiles, but 290 right and left colors: too many codes for a byte.
        many_colors = WangTileSet(
            WangTile(f"c{i}", "ab"[i % 2], f"c{i + 150 if i < 140 else i - 140}", "ab"[i // 2 % 2])
            for i in range(150)
        )
        assert len(many_colors.vertical_colors) == 290 and _codes(many_colors) == ()
        assert column_bytes(((0,),), len(many_tiles)) is None
        for T in (many_tiles, many_colors):
            found = 0
            for width, height in [(1, 1), (1, 5), (5, 1), (6, 4)]:
                for _ in range(30):
                    w = Word2d.from_columns(
                        [[rng.randrange(len(T)) for _ in range(height)] for _ in range(width)]
                    )
                    got = list(violations(T, w))
                    assert got == violations_per_edge(T, w)
                    found += len(got) < (width - 1) * height + width * (height - 1)
            assert found  # some edges match, so not every edge is reported

    @pytest.mark.parametrize("letter", [-1, 19, 255, 256, -300])
    def test_letters_outside_the_set_are_a_value_error(self, letter):
        w = Word2d(((0, 8), (12, letter), (letter, 3)))
        with pytest.raises(ValueError, match=rf"cell \(1,1\) holds letter {letter}, outside 0\.\.18"):
            is_valid_pattern(U, w)
        with pytest.raises(ValueError, match=r"cell \(0,0\)"):
            list(violations(U, Word2d.letter(letter)))
        big = WangTileSet(WangTile(f"r{i}", "t", "l", "b") for i in range(300))
        with pytest.raises(ValueError, match=r"cell \(2,0\)"):
            is_valid_pattern(big, Word2d(((0,), (1,), (-1,))))


class TestSolveRectangle:
    def test_every_tile_fills_1x1(self):
        assert solve_rectangle(U, 1, 1, None, "count") == 19

    def test_pinned_vertical_domino_extends_in_4x4(self):
        assert solve_rectangle(U, 4, 4, {(1, 1): 0, (1, 2): 8}, "exists") is True

    def test_fully_pinned_inflation_patch(self):
        omega = builtin("omega").payload
        patch = iterate(omega, 4, 5)
        pins = {(x, y): patch.cell(x, y) for x in range(13) for y in range(8)}
        assert solve_rectangle(U, 13, 8, pins, "exists") is True

    def test_inconsistent_pins_are_not_an_error(self):
        pins = {(0, 0): 0, (1, 0): 0}  # right F cannot meet left J
        assert solve_rectangle(U, 2, 1, pins, "exists") is False
        assert solve_rectangle(U, 2, 1, pins, "count") == 0
        assert solve_rectangle(U, 2, 1, pins, "enumerate") == []

    def test_pin_outside_rectangle(self):
        with pytest.raises(ValueError, match="outside"):
            solve_rectangle(U, 2, 2, {(5, 0): 0}, "exists")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            solve_rectangle(U, 1, 1, None, "first")

    def test_empty_tileset(self):
        empty = WangTileSet([])
        assert solve_rectangle(empty, 2, 2, None, "exists") is False
        assert solve_rectangle(empty, 2, 2, None, "count") == 0
        assert solve_rectangle(empty, 2, 2, None, "enumerate") == []
        assert solve_rectangle(empty, 1, 1, None, "exists") is False

    def test_enumeration_is_scan_ordered_and_deterministic(self):
        a = solve_rectangle(U, 2, 2, None, "enumerate")
        b = solve_rectangle(U, 2, 2, None, "enumerate")
        assert a == b
        flat = [tuple(w.cell(x, y) for y in range(2) for x in range(2)) for w in a]
        assert flat == sorted(flat)

    def test_long_strips_do_not_exhaust_the_stack(self):
        assert solve_rectangle(U, 2000, 1) is True
        assert solve_rectangle(U, 1, 2000) is True

    @settings(deadline=None, max_examples=150)
    @given(small_tileset(), st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_brute_force(self, ts, width, height, data):
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        pins = data.draw(st.dictionaries(cells, st.integers(0, len(ts) - 1), max_size=3))
        got = solve_rectangle(ts, width, height, pins, "enumerate")
        expected = [
            w
            for w in brute_force_solutions(list(ts), width, height)
            if all(w.cell(x, y) == t for (x, y), t in pins.items())
        ]
        assert got == expected  # brute force also scans in canonical order
        assert solve_rectangle(ts, width, height, pins, "count") == len(expected)
        assert solve_rectangle(ts, width, height, pins, "exists") == bool(expected)


def pinned_windows(patch, rng, count):
    """``count`` random windows of the patch, up to 4x4, each with up to four
    random cells pinned to the patch's letters."""
    n1, n2 = patch.shape
    for _ in range(count):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        x0, y0 = rng.randrange(n1 - w + 1), rng.randrange(n2 - h + 1)
        cells = [(x, y) for x in range(w) for y in range(h)]
        pinned = rng.sample(cells, rng.randint(0, min(4, len(cells))))
        yield w, h, {(x, y): patch.cell(x0 + x, y0 + y) for x, y in pinned}


class TestCount:
    @pytest.mark.parametrize("name", ["U", "V"])
    def test_matches_enumeration_on_pinned_windows(self, name):
        omega = builtin("omega").payload
        patch = iterate(omega, 4, 8)
        if name == "V":  # omega = alpha o beta o gamma, so beta o gamma maps U's patch to V's
            patch = apply(compose(builtin("beta").payload, builtin("gamma").payload), patch)
        T = builtin(name).payload
        assert is_valid_pattern(T, patch)
        rng = random.Random(name)
        for w, h, pins in pinned_windows(patch, rng, 40):
            expected = len(solve_rectangle(T, w, h, pins, "enumerate"))
            assert expected >= 1  # the window itself
            assert solve_rectangle(T, w, h, pins, "count") == expected, (w, h, pins)

    @pytest.mark.parametrize("width, height", [(2000, 2), (2, 2000), (3, 300)])
    def test_long_strips_sweep_along_the_short_side(self, width, height):
        # The dual reflects through the diagonal, so it tiles the transposed
        # rectangle as often; a sweep along the long side would be refused.
        count = solve_rectangle(U, width, height, None, "count")
        assert count > 0 and count == solve_rectangle(U.dual(), height, width, None, "count")

    def test_u_ten_by_ten(self):
        # On a 2-vCPU VM, enumerating these 356,483 tilings takes about 14 s
        # and the sweep about 0.2 s.
        start = perf_counter()
        assert solve_rectangle(U, 10, 10, None, "count") == 356483
        assert perf_counter() - start < 2.0

    def test_state_limit_is_exact(self, monkeypatch):
        # U's 10x10 sweep peaks at 41,379 states.
        monkeypatch.setattr("wangtiles.solver.MAX_COUNT_STATES", 41379)
        assert solve_rectangle(U, 10, 10, None, "count") == 356483
        monkeypatch.setattr("wangtiles.solver.MAX_COUNT_STATES", 41378)
        with pytest.raises(CountTooLarge, match="10x10"):
            solve_rectangle(U, 10, 10, None, "count")

    def test_large_count_is_refused_in_bounded_memory(self):
        assert issubclass(CountTooLarge, ValueError)
        tracemalloc.start()
        try:
            start = perf_counter()
            with pytest.raises(CountTooLarge, match="40x40"):
                solve_rectangle(U, 40, 40, None, "count")
            elapsed = perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert elapsed < 15


@cache
def cached_per_bit_union(T, over, fits):
    """per_bit_union over the tiles of T, remembered across sweeps."""
    return per_bit_union(list(T), over, fits)


def sweep_propagate(T, masks, width, height):
    """Reference arc consistency: every cell pending at the start, and each
    pop re-derives the cell's mask from the per-bit unions of all four neighbors."""
    right, left, top, bottom = (fits for _, fits in DIRECTIONS)
    union = partial(cached_per_bit_union, T)
    pending = set(range(width * height))
    while pending:
        idx = pending.pop()
        x, y = idx % width, idx // width
        m = masks[idx]
        if x > 0:
            m &= union(masks[idx - 1], right)
        if x + 1 < width:
            m &= union(masks[idx + 1], left)
        if y > 0:
            m &= union(masks[idx - width], top)
        if y + 1 < height:
            m &= union(masks[idx + width], bottom)
        if m == masks[idx]:
            continue
        if m == 0:
            return False
        masks[idx] = m
        if x > 0:
            pending.add(idx - 1)
        if x + 1 < width:
            pending.add(idx + 1)
        if y > 0:
            pending.add(idx - width)
        if y + 1 < height:
            pending.add(idx + width)
    return True


def mirror(t):
    """The tile with each side's color on the opposite side: a partner of t
    on all four sides, and t of it."""
    return WangTile(t.left, t.bottom, t.right, t.top)


def assert_same_fixpoint(T, width, height, pins):
    """The solver's start and propagation reach the reference's fixpoint."""
    tb = _tables(T)
    masks, changed = _initial_masks(width, height, pins, tb)
    reference = list(masks)
    consistent = _propagate(masks, width, height, tb, changed)
    assert consistent == sweep_propagate(T, reference, width, height)
    if consistent:
        assert masks == reference


class TestPropagation:
    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.builds(WangTile, *[st.sampled_from("abc")] * 4), min_size=1, max_size=6, unique=True
        ),
        st.booleans(),
        st.integers(1, 5),
        st.integers(1, 5),
        st.data(),
    )
    def test_matches_cell_sweep(self, tiles, mirrored, width, height, data):
        if mirrored:
            tiles = tiles + [mirror(t) for t in tiles if mirror(t) not in tiles]
        T = WangTileSet(tiles)
        partnered = all(any(fits(u, v) for v in tiles) for u in tiles for _, fits in DIRECTIONS)
        assert _tables(T).partnered == partnered
        assert partnered or not mirrored
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        pins = data.draw(st.dictionaries(cells, st.integers(0, len(T) - 1), max_size=4))
        assert_same_fixpoint(T, width, height, pins)

    def test_free_rectangle_of_a_partnered_set_starts_empty(self):
        masks, changed = _initial_masks(6, 4, {}, _tables(U))
        assert list(changed) == [] and masks == [_tables(U).full] * 24

    @pytest.mark.parametrize("name", ["U", "V", "W"])
    def test_pinned_surroundings(self, name):
        T = builtin(name).payload
        assert _tables(T).partnered
        patterns = [
            domino(i, j, d)
            for d in (1, 2)
            for i, u in enumerate(T)
            for j, v in enumerate(T)
            if (u.right == v.left if d == 1 else u.top == v.bottom)
        ]
        for radius in (1, 2):
            for p in patterns + solve_rectangle(T, 2, 2, None, "enumerate"):
                n1, n2 = p.shape
                pins = {
                    (x + n1 * radius, y + n2 * radius): p.cell(x, y)
                    for x in range(n1)
                    for y in range(n2)
                }
                side = 1 + 2 * radius
                assert_same_fixpoint(T, n1 * side, n2 * side, pins)


def brute_force_neighbors(width, height):
    """Each cell's 4-neighbors, row by row from the bottom, each with its side
    in the order of a union memo entry: east, west, north, south."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return tuple(
        tuple(
            (cells.index((x + dx, y + dy)), side)
            for side, (dx, dy) in enumerate(steps)
            if (x + dx, y + dy) in cells
        )
        for x, y in cells
    )


class TestGeometry:
    @pytest.mark.parametrize(
        "width, height", [(1, 1), (1, 2), (1, 7), (2, 1), (7, 1), (2, 2), (3, 5), (6, 4)]
    )
    def test_matches_brute_force(self, width, height):
        assert _neighbors(width, height) == brute_force_neighbors(width, height)

    def test_cache_is_small(self):
        # The cache outlives every query, and a process that asks about many
        # shapes keeps what it holds.
        assert _neighbors.cache_info().maxsize <= 8


# Solutions compared per search: enough to cover every node of a small
# rectangle's enumeration and the first stretch of a large one's.
SEARCH_LIMIT = 40


def first_solutions(solutions, T, width, height, pins):
    """The first SEARCH_LIMIT solutions a search yields from the propagated
    masks, in the order it yields them."""
    tb = _tables(T)
    masks, changed = _initial_masks(width, height, pins, tb)
    if not _propagate(masks, width, height, tb, changed):
        return []
    return [list(s) for s in islice(solutions(masks, width, height, tb), SEARCH_LIMIT)]


def assert_same_search(T, width, height, pins):
    """The search yields the reference's solutions in the reference's order,
    so it branches on the same cell at every node; exists agrees with the
    first of them, and a complete enumeration lists them sorted."""
    expected = first_solutions(reference_solutions, T, width, height, pins)
    assert first_solutions(_solutions, T, width, height, pins) == expected
    assert solve_rectangle(T, width, height, pins, "exists") == bool(expected)
    if len(expected) < SEARCH_LIMIT:
        scans = sorted(tuple(m.bit_length() - 1 for m in s) for s in expected)
        listed = solve_rectangle(T, width, height, pins, "enumerate")
        assert [w.columns for w in listed] == [
            tuple(tuple(s[y * width + x] for y in range(height)) for x in range(width))
            for s in scans
        ]


class TestSearch:
    @pytest.mark.parametrize("name", ["U", "V"])
    def test_matches_reference_on_pinned_windows(self, name):
        omega = builtin("omega").payload
        patch = iterate(omega, 4, 8)
        if name == "V":  # as in TestCount
            patch = apply(compose(builtin("beta").payload, builtin("gamma").payload), patch)
        T = builtin(name).payload
        rng = random.Random(name)
        n1, n2 = patch.shape
        for _ in range(40):
            w, h = rng.randint(1, 10), rng.randint(1, 10)
            x0, y0 = rng.randrange(n1 - w + 1), rng.randrange(n2 - h + 1)
            cells = [(x, y) for x in range(w) for y in range(h)]
            pinned = rng.sample(cells, rng.randint(0, min(3, len(cells))))
            pins = {(x, y): patch.cell(x0 + x, y0 + y) for x, y in pinned}
            assert_same_search(T, w, h, pins)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        st.lists(
            st.builds(WangTile, *[st.sampled_from("abc")] * 4), min_size=2, max_size=9, unique=True
        ),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_matches_reference_on_drawn_sets(self, tiles, width, height, data):
        T = WangTileSet(tiles)
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        pins = data.draw(st.dictionaries(cells, st.integers(0, len(T) - 1), max_size=3))
        assert_same_search(T, width, height, pins)


class TestSurroundings:
    def test_domino_sizes_u(self):
        assert [len(dominoes_with_surrounding(U, 2, r)) for r in (1, 2, 3)] == [37, 35, 35]

    def test_domino_first_pairs(self):
        d = dominoes_with_surrounding(U, 2, 2)
        assert d[:3] == [(0, 8), (1, 8), (1, 9)]

    def test_domino_sizes_v(self):
        assert [len(dominoes_with_surrounding(V, 1, r)) for r in (1, 2)] == [30, 30]

    def test_monotone_in_radius(self):
        for r in (1, 2):
            assert set(dominoes_with_surrounding(U, 2, r + 1)) <= set(
                dominoes_with_surrounding(U, 2, r)
            )
        p0 = set(patterns_with_surrounding(U, (2, 2), 0))
        p1 = set(patterns_with_surrounding(U, (2, 2), 1))
        assert p1 <= p0

    def test_duality_transports_dominoes(self):
        for T in (U, V):
            for r in (0, 1):
                assert dominoes_with_surrounding(T, 1, r) == dominoes_with_surrounding(
                    T.dual(), 2, r
                )

    def test_patterns_1x1_radius0_is_whole_set(self):
        pats = patterns_with_surrounding(U, (1, 1), 0)
        assert pats == [Word2d.letter(i) for i in range(19)]

    def test_patterns_2x2_radius1_count(self):
        assert len(patterns_with_surrounding(U, (2, 2), 1)) == 50

    def test_surrounding_query_geometry(self):
        # A vertical domino with a radius-2 ring of domino copies is the
        # 5x10 rectangle with the domino pinned at (2, 4) and (2, 5).
        for i, u in enumerate(U):
            for j, v in enumerate(U):
                if u.top == v.bottom:
                    assert pattern_has_surrounding(U, Word2d(((i, j),)), 2) == solve_rectangle(
                        U, 5, 10, {(2, 4): i, (2, 5): j}
                    )

    def test_radius_zero_is_validity(self):
        valid = Word2d(((0,), (3,)))  # right F meets left F
        assert pattern_has_surrounding(U, valid, 0) == is_valid_pattern(U, valid)
        invalid = Word2d(((0,), (0,)))
        assert pattern_has_surrounding(U, invalid, 0) is False

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            pattern_has_surrounding(U, Word2d.letter(0), -1)
        with pytest.raises(ValueError, match="radius"):
            dominoes_with_surrounding(U, 2, -1)
        with pytest.raises(ValueError, match="radius"):
            patterns_with_surrounding(U, (2, 2), -1)

    @pytest.mark.parametrize("T, direction, top", [(U, 2, 3), (U, 1, 3), (V, 1, 2), (V, 2, 2)])
    def test_memoized_layer_matches_from_scratch(self, T, direction, top):
        # Cold cache, highest radius first: each lower radius is asked afresh of
        # the patterns whose bounds do not already answer it.
        _tables.cache_clear()
        layered = {r: dominoes_with_surrounding(T, direction, r) for r in range(top, -1, -1)}
        for r, got in layered.items():
            assert got == from_scratch_dominoes(T, direction, r), r

    def test_memo_does_not_depend_on_query_order(self, monkeypatch):
        expected = {
            (T, d, r): from_scratch_dominoes(T, d, r)
            for T in (U, V)
            for d in (1, 2)
            for r in range(4)
        }
        blocks = solve_rectangle(U, 2, 2, None, "enumerate")
        expected_blocks = {
            r: sorted(p for p in blocks if pattern_has_surrounding(U, p, r)) for r in range(3)
        }
        solved = []
        real = _has_surrounding

        def counted(T, columns, radius):
            solved.append((T, columns, radius))
            return real(T, columns, radius)

        monkeypatch.setattr("wangtiles.solver._has_surrounding", counted)
        ascending = sorted(expected, key=lambda key: key[2])
        shuffled = list(expected)
        random.Random(4).shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled):
            _tables.cache_clear()
            solved.clear()
            for T, d, r in order:
                assert dominoes_with_surrounding(T, d, r) == expected[T, d, r], (d, r)
            for r in (1, 0, 2):
                assert patterns_with_surrounding(U, (2, 2), r) == expected_blocks[r], r
            # Each (pattern, radius) is solved at most once from a cold memo.
            assert solved and len(solved) == len(set(solved))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_cold_domino_query_solves_once_per_pair(self, monkeypatch, radius):
        # 79 color-matching vertical pairs in U, each solved at the asked
        # radius alone, never at the radii below it.
        solved = []
        real = solve_rectangle

        def counted(T, width, height, pins=None, mode="exists"):
            solved.append((width, height))
            return real(T, width, height, pins, mode)

        monkeypatch.setattr("wangtiles.solver.solve_rectangle", counted)
        _tables.cache_clear()
        dominoes_with_surrounding(U, 2, radius)
        side = 1 + 2 * radius
        assert solved == [(side, 2 * side)] * 79

    def test_returned_domino_list_is_a_copy(self):
        first = dominoes_with_surrounding(U, 2, 2)
        snapshot = list(first)
        first.clear()
        again = dominoes_with_surrounding(U, 2, 2)
        assert again == snapshot and len(again) == 35
        again.append((99, 99))
        assert dominoes_with_surrounding(U, 2, 2) == snapshot

    @pytest.mark.parametrize("radius", [0, 1])
    def test_returned_pattern_list_is_a_copy(self, radius):
        _tables.cache_clear()
        first = patterns_with_surrounding(U, (2, 2), radius)
        snapshot = list(first)
        assert first == sorted(first, key=lambda p: p.columns)
        first.reverse()
        first.append(Word2d(((0, 0), (0, 0))))
        again = patterns_with_surrounding(U, (2, 2), radius)
        assert again == snapshot
        again.clear()
        assert patterns_with_surrounding(U, (2, 2), radius) == snapshot

    def test_patterns_are_enumerated_once_per_shape(self, monkeypatch):
        enumerated = []
        real = solve_rectangle

        def counted(T, width, height, pins=None, mode="exists"):
            if mode == "enumerate":
                enumerated.append((width, height))
            return real(T, width, height, pins, mode)

        monkeypatch.setattr("wangtiles.solver.solve_rectangle", counted)
        _tables.cache_clear()
        for r in (1, 0, 2, 1):
            patterns_with_surrounding(U, (2, 2), r)
            patterns_with_surrounding(U, (1, 2), r)
        assert enumerated == [(2, 2), (1, 2)]

    def test_determinism(self):
        assert dominoes_with_surrounding(U, 2, 1) == dominoes_with_surrounding(U, 2, 1)
        assert patterns_with_surrounding(U, (2, 2), 1) == patterns_with_surrounding(
            U, (2, 2), 1
        )


def color_matching_pairs(T, direction):
    """The pairs (i, j) whose colors meet along the axis, read off the tiles."""
    return sorted(
        (i, j)
        for i, u in enumerate(T)
        for j, v in enumerate(T)
        if (u.right == v.left if direction == 1 else u.top == v.bottom)
    )


def assert_pair_list(T, direction):
    """At radius 0 every color-matching pair survives, so the domino iterator
    walks exactly the per-set pair list, in sorted order, and asking again
    walks the same list."""
    _tables.cache_clear()
    expected = color_matching_pairs(T, direction)
    assert list(surviving_dominoes(T, direction, 0)) == expected
    listed = _tables(T).pairs[direction]
    assert list(surviving_dominoes(T, direction, 0)) == expected
    assert _tables(T).pairs[direction] is listed


class TestPairLists:
    @pytest.mark.parametrize("name", ["U", "V", "W"])
    @pytest.mark.parametrize("direction", [1, 2])
    def test_builtin_sets(self, name, direction):
        assert_pair_list(builtin(name).payload, direction)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.builds(WangTile, *[st.sampled_from("abc")] * 4), min_size=2, max_size=8, unique=True
        ),
        st.sampled_from([1, 2]),
    )
    def test_drawn_sets(self, tiles, direction):
        assert_pair_list(WangTileSet(tiles), direction)


def grid_tileset(width, height):
    """One tile per cell of a width x height grid, every edge color its own,
    so the grid pattern is valid and each of its windows is a distinct pattern."""
    return WangTileSet(
        WangTile(f"v{x + 1}.{y}", f"h{x}.{y + 1}", f"v{x}.{y}", f"h{x}.{y}")
        for x in range(width)
        for y in range(height)
    )


def grid_patch(width, height):
    """The valid patch of grid_tileset(width, height): tile x * height + y at (x, y)."""
    return Word2d(tuple(tuple(x * height + y for y in range(height)) for x in range(width)))


def fitting_radii(patch):
    """Each 2x2 block of the patch with the largest radius whose surrounding
    rectangle lies inside the patch, by direct containment."""
    width, height = patch.shape
    for x in range(width - 1):
        for y in range(height - 1):
            r = 0
            while (
                x - 2 * (r + 1) >= 0
                and x + 2 + 2 * (r + 1) <= width
                and y - 2 * (r + 1) >= 0
                and y + 2 + 2 * (r + 1) <= height
            ):
                r += 1
            cols = patch.columns[x : x + 2]
            yield Word2d(tuple(c[y : y + 2] for c in cols)), r


GRID = grid_tileset(6, 6)
GRID_PATCH = grid_patch(6, 6)
GRID_CENTER = Word2d(((14, 15), (20, 21)))  # the 2x2 block at (2, 2)


class TestHarvest:
    def test_six_by_six_patch(self):
        _tables.cache_clear()
        assert is_valid_pattern(GRID, GRID_PATCH)
        harvest(GRID, GRID_PATCH)
        known = _tables(GRID).known
        # The corner blocks fit no ring, and no domino is recorded: only the
        # minimality step reads harvested facts, and only of 2x2 blocks.
        assert known == {GRID_CENTER.columns: (1, None)}

    # 10 x 13 has radius-2 windows, and its sides differ, so a margin off by
    # one or a swapped axis changes some recorded radius.
    @pytest.mark.parametrize("width, height", [(6, 6), (10, 13)])
    def test_records_the_radius_of_each_window(self, width, height):
        T, patch = grid_tileset(width, height), grid_patch(width, height)
        _tables.cache_clear()
        harvest(T, patch)
        known = _tables(T).known
        windows = dict(fitting_radii(patch))
        assert known == {p.columns: (r, None) for p, r in windows.items() if r > 0}
        for key, (r, _) in known.items():
            assert pattern_has_surrounding(T, Word2d(key), r)

    def test_invalid_patch_records_nothing(self):
        _tables.cache_clear()
        columns = [list(c) for c in GRID_PATCH.columns]
        columns[2][2], columns[3][3] = columns[3][3], columns[2][2]
        invalid = Word2d.from_columns(columns)
        assert not is_valid_pattern(GRID, invalid)
        harvest(GRID, invalid)
        assert _tables(GRID).known == {}

    def test_raises_but_never_lowers_a_known_radius(self):
        _tables.cache_clear()
        known = _tables(GRID).known
        key = GRID_CENTER.columns
        known[key] = (2, 3)  # the patch witnesses it at radius 1
        harvest(GRID, GRID_PATCH)
        assert known[key] == (2, 3)
        known[key] = (0, 2)
        harvest(GRID, GRID_PATCH)
        assert known[key] == (1, 2)
