from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wangtiles.core import WangTile, WangTileSet
from wangtiles.corpus import builtin
from wangtiles.morphism import Word2d, iterate
from wangtiles.solver import (
    _initial_masks,
    _propagate,
    _solutions,
    _tables,
    _union,
    domino,
    dominoes_with_surrounding,
    harvest,
    is_valid_pattern,
    pattern_has_surrounding,
    patterns_with_surrounding,
    solve_rectangle,
    violations,
)

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
    """Every assignment, checked directly against the matching rules."""
    out = []
    cells = [(x, y) for y in range(height) for x in range(width)]
    for combo in product(range(len(tiles)), repeat=len(cells)):
        grid = dict(zip(cells, combo))
        ok = True
        for (x, y), k in grid.items():
            t = tiles[k]
            if x + 1 < width and t.right != tiles[grid[(x + 1, y)]].left:
                ok = False
                break
            if y + 1 < height and t.top != tiles[grid[(x, y + 1)]].bottom:
                ok = False
                break
        if ok:
            cols = tuple(tuple(grid[(x, y)] for y in range(height)) for x in range(width))
            out.append(Word2d(cols))
    return out


tile_strategy = st.builds(
    WangTile,
    st.sampled_from("ab"),
    st.sampled_from("ab"),
    st.sampled_from("ab"),
    st.sampled_from("ab"),
)


@st.composite
def small_tileset(draw):
    tiles = draw(st.lists(tile_strategy, min_size=1, max_size=4, unique=True))
    return WangTileSet(tiles)


def per_bit_union(tiles, over, fits):
    """Tiles j with fits(tiles[i], tiles[j]) for some i set in ``over``, one bit at a time."""
    members = [i for i in range(len(tiles)) if over >> i & 1]
    return reduce(
        or_,
        (1 << j for i in members for j, v in enumerate(tiles) if fits(tiles[i], v)),
        0,
    )


# (chunk tables of a direction, does tile v fit on that side of tile u?)
DIRECTIONS = [
    ("right_chunks", lambda u, v: u.right == v.left),
    ("left_chunks", lambda u, v: u.left == v.right),
    ("top_chunks", lambda u, v: u.top == v.bottom),
    ("bottom_chunks", lambda u, v: u.bottom == v.top),
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
        for attr, fits in DIRECTIONS:
            assert _union(getattr(tb, attr), over) == per_bit_union(tiles, over, fits)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 24])
    def test_chunk_boundaries(self, size):
        # Distinct tiles whose four colors spell the index in base 3.
        tiles = [
            WangTile(*("abc"[k // 3**d % 3] for d in range(4))) for k in range(size)
        ]
        tb = _tables(WangTileSet(tiles))
        assert all(len(chunks) == -(-size // 8) for chunks in (tb.right_chunks, tb.top_chunks))
        for over in [(1 << size) - 1, 1 << (size - 1), 0] + [1 << i for i in range(size)]:
            for attr, fits in DIRECTIONS:
                assert _union(getattr(tb, attr), over) == per_bit_union(tiles, over, fits)


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

    @settings(deadline=None, max_examples=60)
    @given(small_tileset(), st.integers(1, 3), st.integers(1, 2), st.data())
    def test_matches_brute_force(self, ts, width, height, data):
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        pins = data.draw(st.dictionaries(cells, st.integers(0, len(ts) - 1), max_size=2))
        got = solve_rectangle(ts, width, height, pins, "enumerate")
        expected = [
            w
            for w in brute_force_solutions(list(ts), width, height)
            if all(w.cell(x, y) == t for (x, y), t in pins.items())
        ]
        assert got == expected  # brute force also scans in canonical order
        assert solve_rectangle(ts, width, height, pins, "count") == len(expected)
        assert solve_rectangle(ts, width, height, pins, "exists") == bool(expected)


def sweep_propagate(masks, width, height, tb):
    """Reference arc consistency: every cell pending at the start, and each
    pop re-derives the cell's mask from the unions of all four neighbors."""
    pending = set(range(width * height))
    while pending:
        idx = pending.pop()
        x, y = idx % width, idx // width
        m = masks[idx]
        if x > 0:
            m &= _union(tb.right_chunks, masks[idx - 1])
        if x + 1 < width:
            m &= _union(tb.left_chunks, masks[idx + 1])
        if y > 0:
            m &= _union(tb.top_chunks, masks[idx - width])
        if y + 1 < height:
            m &= _union(tb.bottom_chunks, masks[idx + width])
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
    assert consistent == sweep_propagate(reference, width, height, tb)
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
        # Cold cache, highest radius first: the lower radii are filled on the way.
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
        real = pattern_has_surrounding

        def counted(T, pattern, radius):
            solved.append((T, pattern, radius))
            return real(T, pattern, radius)

        monkeypatch.setattr("wangtiles.solver.pattern_has_surrounding", counted)
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
            assert len(solved) == len(set(solved))

    def test_returned_domino_list_is_a_copy(self):
        first = dominoes_with_surrounding(U, 2, 2)
        snapshot = list(first)
        first.clear()
        again = dominoes_with_surrounding(U, 2, 2)
        assert again == snapshot and len(again) == 35
        again.append((99, 99))
        assert dominoes_with_surrounding(U, 2, 2) == snapshot

    def test_determinism(self):
        assert dominoes_with_surrounding(U, 2, 1) == dominoes_with_surrounding(U, 2, 1)
        assert patterns_with_surrounding(U, (2, 2), 1) == patterns_with_surrounding(
            U, (2, 2), 1
        )


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
    """Each domino and block of the patch with the largest radius whose
    surrounding rectangle lies inside the patch, by direct containment."""
    width, height = patch.shape
    for a, b in ((2, 1), (1, 2), (2, 2)):
        for x in range(width - a + 1):
            for y in range(height - b + 1):
                r = 0
                while (
                    x - a * (r + 1) >= 0
                    and x + a + a * (r + 1) <= width
                    and y - b * (r + 1) >= 0
                    and y + b + b * (r + 1) <= height
                ):
                    r += 1
                cols = patch.columns[x : x + a]
                yield Word2d(tuple(c[y : y + b] for c in cols)), r


GRID = grid_tileset(6, 6)
GRID_PATCH = grid_patch(6, 6)
GRID_CENTER = Word2d(((14, 15), (20, 21)))  # the 2x2 block at (2, 2)


class TestHarvest:
    def test_six_by_six_patch(self):
        _tables.cache_clear()
        assert is_valid_pattern(GRID, GRID_PATCH)
        harvest(GRID, GRID_PATCH)
        known = _tables(GRID).known
        assert known[GRID_CENTER] == (1, None)
        assert Word2d(((0, 1), (6, 7))) not in known  # the corner block
        assert Word2d(((0,), (6,))) not in known  # a domino on the border

    # 10 x 13 has radius-2 windows, and its sides differ, so a margin off by
    # one or a swapped axis changes some recorded radius.
    @pytest.mark.parametrize("width, height", [(6, 6), (10, 13)])
    def test_records_the_radius_of_each_window(self, width, height):
        T, patch = grid_tileset(width, height), grid_patch(width, height)
        _tables.cache_clear()
        harvest(T, patch)
        known = _tables(T).known
        windows = dict(fitting_radii(patch))
        assert known == {p: (r, None) for p, r in windows.items() if r > 0}
        for p, (r, _) in known.items():
            assert pattern_has_surrounding(T, p, r)

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
        side = Word2d(((13,), (19,)))  # the horizontal domino at (2, 1), witnessed at 1
        known[GRID_CENTER] = (2, 3)
        known[side] = (0, 2)
        harvest(GRID, GRID_PATCH)
        assert known[GRID_CENTER] == (2, 3)
        assert known[side] == (1, 2)
