from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from itertools import permutations

import pytest

from wangtiles.core import (
    ParseError,
    WangTile,
    WangTileSet,
    check_equivalence,
    emit_tileset,
    fuse,
    parse_tileset,
)
from wangtiles.corpus import HORIZONTAL_RELABEL, VERTICAL_RELABEL, builtin

from helpers import deadline, relabel


def _bijection(pairs):
    forward = dict(pairs)
    if len(forward) != len(set(pairs)) or len(set(forward.values())) != len(forward):
        return None
    return forward


def equivalent_by_brute_force(T, S):
    """Independent oracle: try every tile bijection."""
    if len(T) != len(S):
        return False
    for perm in permutations(range(len(S))):
        pairs = [(T[i], S[j]) for i, j in enumerate(perm)]
        vertical = _bijection(
            [(t.right, s.right) for t, s in pairs] + [(t.left, s.left) for t, s in pairs]
        )
        horizontal = _bijection(
            [(t.top, s.top) for t, s in pairs] + [(t.bottom, s.bottom) for t, s in pairs]
        )
        if vertical is not None and horizontal is not None:
            return True
    return False

U = builtin("U").payload
V = builtin("V").payload
W = builtin("W").payload


class TestParsing:
    def test_single_line(self):
        ts = parse_tileset("F O J O\n")
        assert ts[0] == WangTile("F", "O", "J", "O")

    def test_empty_input(self):
        assert len(parse_tileset("")) == 0

    def test_comments_and_blank_lines_ignored(self):
        ts = parse_tileset("# header\n\nF O J O\n  # trailing comment\nF O H L\n")
        assert len(ts) == 2

    def test_roundtrip(self):
        text = emit_tileset(U)
        assert parse_tileset(text) == U
        assert emit_tileset(parse_tileset(text)) == text

    def test_wrong_arity_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tileset("F O J O\nF O J\n")

    def test_duplicate_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_tileset("F O J O\nF O H L\nF O J O\n")

    def test_duplicate_names_first_line(self):
        with pytest.raises(ParseError, match=r"line 4: duplicate tile .* \(first on line 2\)"):
            parse_tileset("F O J O\nF O H L\n\nF O H L\n")

    # Each tile is checked against the ones before it by hash, not by a scan.
    def test_many_distinct_tiles_parse_in_linear_time(self):
        text = "".join(f"r{i} t{i} l{i} b{i}\n" for i in range(10_000))
        with deadline(3):
            assert len(parse_tileset(text)) == 10_000

    def test_u_color_alphabets(self):
        assert U.vertical_colors == frozenset("ABCDEFGHIJ")
        assert U.horizontal_colors == frozenset("KLMNOP")

    def test_duplicate_tiles_refused(self):
        t = WangTile("A", "B", "C", "D")
        with pytest.raises(ValueError, match="duplicate"):
            WangTileSet([t, t])

    def test_equal_sets_built_separately_hash_equal(self):
        again = parse_tileset(emit_tileset(U))
        assert again is not U and again == U and hash(again) == hash(U)
        assert {U: 1}[again] == 1

    def test_unpickled_set_hashes_like_a_fresh_one_in_another_process(self):
        script = (
            "import pickle, sys; from wangtiles.corpus import builtin;"
            "T = pickle.loads(sys.stdin.buffer.read());"
            "print(hash(T) == hash(builtin('U').payload) and T == builtin('U').payload)"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(U), env=env,
            capture_output=True, check=True,
        )
        assert out.stdout.strip() == b"True"

    def test_whitespace_in_color_refused(self):
        with pytest.raises(ValueError):
            WangTile("A B", "C", "D", "E")


class TestDual:
    def test_tile_dual(self):
        assert WangTile("F", "O", "J", "O").dual() == WangTile("O", "F", "O", "J")

    def test_involution(self):
        assert U.dual().dual() == U

    def test_dual_swaps_color_families(self):
        assert len(U.dual().vertical_colors) == 6
        assert len(U.dual().horizontal_colors) == 10


class TestFuse:
    def test_horizontal_example(self):
        out = fuse(U[0], U[2], 1)
        assert out == WangTile("J", "OM", "J", "OP")

    def test_vertical_example(self):
        # tile 8 below tile 0 fuses to the composite (BF, O, IJ, O)
        out = fuse(U[8], U[0], 2)
        assert out == WangTile("BF", "O", "IJ", "O")
        assert out == V[9]

    def test_mismatch_is_undefined(self):
        assert fuse(U[0], U[0], 1) is None

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            fuse(U[0], U[0], 3)

    def test_multichar_tokens_keep_separator(self):
        a = WangTile("x", "AB", "y", "CD")
        b = WangTile("z", "E", "x", "F")
        out = fuse(a, b, 1)
        assert out.top == "AB·E"
        assert out.bottom == "CD·F"

    def test_definedness_matches_colors_for_all_pairs(self):
        for u in U:
            for v in U:
                assert (fuse(u, v, 1) is not None) == (u.right == v.left)
                assert (fuse(u, v, 2) is not None) == (u.top == v.bottom)

    def test_accessor_table_for_all_pairs(self):
        for u in U:
            for v in U:
                f1 = fuse(u, v, 1)
                if f1 is not None:
                    assert f1.as_tuple() == (
                        v.right, u.top + v.top, u.left, u.bottom + v.bottom
                    )
                f2 = fuse(u, v, 2)
                if f2 is not None:
                    assert f2.as_tuple() == (
                        u.right + v.right, v.top, u.left + v.left, u.bottom
                    )

    def test_dual_distributes_over_fusion(self):
        def dual(t):
            return None if t is None else t.dual()

        for T, S in ((U, U), (V, V), (U, V)):
            for u in T:
                for v in S:
                    assert dual(fuse(u, v, 1)) == fuse(u.dual(), v.dual(), 2)
                    assert dual(fuse(u, v, 2)) == fuse(u.dual(), v.dual(), 1)


class TestEquivalence:
    def test_u_and_w_equivalent_with_reference_bijections(self):
        eq = check_equivalence(U, W)
        assert eq is not None
        assert eq.horizontal == HORIZONTAL_RELABEL
        assert eq.vertical == VERTICAL_RELABEL
        assert eq.tile_map == {i: i for i in range(19)}

    def test_self_equivalence_is_identity(self):
        eq = check_equivalence(U, U)
        assert eq is not None
        assert eq.vertical == {c: c for c in U.vertical_colors}
        assert eq.horizontal == {c: c for c in U.horizontal_colors}

    def test_size_mismatch(self):
        assert check_equivalence(U, V) is None

    def test_symmetry(self):
        forward = check_equivalence(U, W)
        backward = check_equivalence(W, U)
        assert forward is not None and backward is not None
        assert {v: k for k, v in forward.vertical.items()} == backward.vertical
        assert {v: k for k, v in forward.horizontal.items()} == backward.horizontal

    def test_relabel_w_back_to_u(self):
        inv_v = {v: k for k, v in VERTICAL_RELABEL.items()}
        inv_h = {v: k for k, v in HORIZONTAL_RELABEL.items()}
        assert relabel(W, inv_v, inv_h) == U

    def test_matches_brute_force(self):
        # Each color sits on exactly one right and one left edge (or top and
        # bottom), so every color has the same signature and the search has
        # to backtrack.
        rng = random.Random(3)

        def regular_set(n):
            while True:
                right, left, top, bottom = (rng.sample(range(n), n) for _ in range(4))
                tiles = {
                    WangTile(f"v{right[i]}", f"h{top[i]}", f"v{left[i]}", f"h{bottom[i]}")
                    for i in range(n)
                }
                if len(tiles) == n:
                    return WangTileSet(sorted(tiles))

        found = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            T = regular_set(n)
            if rng.random() < 0.5:
                vertical = {f"v{i}": f"p{k}" for i, k in enumerate(rng.sample(range(n), n))}
                horizontal = {f"h{i}": f"q{k}" for i, k in enumerate(rng.sample(range(n), n))}
                tiles = list(relabel(T, vertical, horizontal))
                rng.shuffle(tiles)
                S = WangTileSet(tiles)
            else:
                S = regular_set(n)
            eq = check_equivalence(T, S)
            assert (eq is not None) == equivalent_by_brute_force(T, S)
            if eq is not None:
                found += 1
                assert relabel(T, eq.vertical, eq.horizontal) == WangTileSet(
                    S[eq.tile_map[i]] for i in range(len(T))
                )
        assert 150 < found < 300

    def test_long_cycle_does_not_exhaust_the_stack(self):
        # Tile i is (v_i, h_i, v_{i+1}, h_{i+1}): every color signature is
        # equal, so the search assigns all 1,100 tiles one level deeper each.
        n = 1100
        ring = WangTileSet(
            WangTile(f"v{i}", f"h{i}", f"v{(i + 1) % n}", f"h{(i + 1) % n}") for i in range(n)
        )
        eq = check_equivalence(ring, ring)
        assert eq is not None
        assert eq.tile_map == {i: i for i in range(n)}
        vertical = {f"v{i}": f"a{(i * 7) % n}" for i in range(n)}
        horizontal = {f"h{i}": f"b{(i * 13) % n}" for i in range(n)}
        eq = check_equivalence(ring, relabel(ring, vertical, horizontal))
        assert eq is not None
        assert eq.vertical == vertical and eq.horizontal == horizontal
        assert eq.tile_map == {i: i for i in range(n)}

    def test_bound_colors_keep_the_reversed_ring_linear(self):
        # Against its reversed tile order, the ring's first tile fixes every
        # later one through a bound color, so each tile binds its four colors
        # once; trying the shared candidate list from the start instead makes
        # hundreds of thousands of bind calls.
        n = 1100
        ring = WangTileSet(
            WangTile(f"v{i}", f"h{i}", f"v{(i + 1) % n}", f"h{(i + 1) % n}") for i in range(n)
        )
        calls = 0

        def count_binds(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "bind":
                calls += 1

        sys.setprofile(count_binds)
        try:
            eq = check_equivalence(ring, WangTileSet(list(ring)[::-1]))
        finally:
            sys.setprofile(None)
        assert eq is not None
        assert eq.tile_map == {i: (n - i) % n for i in range(n)}
        assert calls <= 4 * n

    def test_inequivalent_same_size(self):
        a = parse_tileset("a x a x\nb y b y\n")
        b = parse_tileset("a x a y\nb y b x\n")
        assert check_equivalence(a, b) is None
