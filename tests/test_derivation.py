from __future__ import annotations

import pytest

from wangtiles.core import WangTile, WangTileSet, parse_tileset
from wangtiles.corpus import ALPHA_TABLE, BETA_TABLE, builtin
from wangtiles.derivation import (
    MarkerError,
    MarkerSet,
    derive,
    find_marker_candidates,
    regroup,
    verify_markers,
)
from wangtiles.morphism import Word2d, apply, check_recognizability_criterion
from wangtiles.solver import dominoes_with_surrounding, patterns_with_surrounding

U = builtin("U").payload
V = builtin("V").payload
W = builtin("W").payload

U_MARKERS = frozenset(range(8))
V_MARKERS = frozenset({0, 1, 3, 8, 9, 14, 15})


class TestVerifyMarkers:
    def test_u_reference_markers(self):
        assert verify_markers(U, U_MARKERS, 2, 2)

    def test_v_reference_markers(self):
        assert verify_markers(V, V_MARKERS, 1, 1)

    def test_single_tile_is_not_a_marker_set(self):
        report = verify_markers(U, {0}, 2, 2)
        assert not report
        # tile 0 sits horizontally next to non-members in admissible dominoes
        assert report.cross_axis_violations
        assert "dominoes" in report.summary()

    def test_empty_or_full_rejected(self):
        with pytest.raises(ValueError):
            verify_markers(U, set(), 2, 2)
        with pytest.raises(ValueError):
            verify_markers(U, set(range(19)), 2, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_markers(U, {42}, 2, 2)


class TestFindCandidates:
    def test_u_axis2(self):
        found = find_marker_candidates(U, 2, 2)
        assert [sorted(m.tile_indices) for m in found] == [list(range(8))]

    def test_v_axis1(self):
        found = find_marker_candidates(V, 1, 1)
        assert [sorted(m.tile_indices) for m in found] == [sorted(V_MARKERS)]

    def test_connected_color_graph_has_no_candidates(self):
        ts = parse_tileset("a x b x\nb x a x\n")
        assert find_marker_candidates(ts, 2, 1) == []

    def test_v_has_no_axis2_candidates(self):
        assert find_marker_candidates(V, 2, 2) == []


def full_set_report(T, markers, direction, radius):
    """The marker violations read off the full domino sets of both axes."""
    same = tuple(
        (i, j)
        for i, j in dominoes_with_surrounding(T, direction, radius)
        if i in markers and j in markers
    )
    cross = tuple(
        (i, j)
        for i, j in dominoes_with_surrounding(T, 3 - direction, radius)
        if (i in markers) != (j in markers)
    )
    return same, cross


def full_set_regroup(T, markers, radius):
    """The singles and fusions read off the full radius-r domino set along the axis."""
    M = markers.tile_indices
    D = dominoes_with_surrounding(T, markers.direction, radius)
    singles = tuple(sorted({i for i, j in D if i not in M and j not in M}))
    fusions = tuple((i, j) for i, j in D if i not in M and j in M)
    return singles, fusions


def component_unions(T, direction):
    """Tile sets induced by every nonempty proper union of crossing-color components."""
    links = [(t.left, t.right) if direction == 2 else (t.bottom, t.top) for t in T]
    comps: list[set[str]] = []
    for a, b in links:
        touching = [c for c in comps if a in c or b in c]
        merged = {a, b}.union(*touching)
        comps = [c for c in comps if c not in touching] + [merged]
    for mask in range(1, (1 << len(comps)) - 1):
        chosen = set().union(*(c for k, c in enumerate(comps) if mask >> k & 1))
        yield frozenset(i for i, (a, b) in enumerate(links) if a in chosen and b in chosen)


# Three color components on axis 2: {0} and {1} are marker sets, and every
# other union holds a surviving marker-marker domino.
THREE_COMPONENTS = parse_tileset("a p a q\nb q b p\nc p c p\n")


@pytest.mark.parametrize("T", [U, V, W, THREE_COMPONENTS], ids=["U", "V", "W", "S"])
@pytest.mark.parametrize("direction", [1, 2])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_marker_checks_match_full_domino_sets(T, direction, radius):
    unions = [M for M in component_unions(T, direction) if 0 < len(M) < len(T)]
    expected = sorted(
        {M for M in unions if full_set_report(T, M, direction, radius) == ((), ())},
        key=lambda M: (len(M), sorted(M)),
    )
    found = find_marker_candidates(T, direction, radius)
    assert [m.tile_indices for m in found] == expected
    assert all(m.direction == direction for m in found)
    # Every verified candidate is among the unions.
    for M in unions:
        m = MarkerSet(M, direction)
        assert regroup(T, m, radius) == full_set_regroup(T, m, radius)
    # Singletons exercise the cross-axis condition, which component unions never break.
    for M in unions + [frozenset({i}) for i in range(len(T))]:
        report = verify_markers(T, M, direction, radius)
        same, cross = full_set_report(T, M, direction, radius)
        assert report.same_axis_violations == same
        assert report.cross_axis_violations == cross
        assert bool(report) == (not same and not cross)


class TestDeriveUToV:
    def test_shape_of_derivation(self):
        d = derive(U, MarkerSet(U_MARKERS, 2), 2)
        assert len(d.derived) == 21
        assert d.singles == (8, 9, 11, 13, 14, 15, 16, 17)
        assert len(d.fusions) == 13
        assert not d.degenerate

    def test_class_sorted_equals_reference_listing(self):
        d = derive(U, MarkerSet(U_MARKERS, 2), 2)
        ts, morph = d.relabeled(d.class_sorted_permutation())
        assert ts == V
        assert morph.to_json_table() == {str(k): v for k, v in ALPHA_TABLE.items()}

    def test_recognizable_by_construction(self):
        d = derive(U, MarkerSet(U_MARKERS, 2), 2)
        assert check_recognizability_criterion(d.morphism, set(U_MARKERS), 2)

    def test_radius_idempotent(self):
        d2 = derive(U, MarkerSet(U_MARKERS, 2), 2)
        d3 = derive(U, MarkerSet(U_MARKERS, 2), 3)
        assert d2.singles == d3.singles and d2.fusions == d3.fusions
        assert d2.derived == d3.derived

    def test_color_transport(self):
        d = derive(U, MarkerSet(U_MARKERS, 2), 2)
        for k, tile in enumerate(d.derived):
            image = d.morphism.images[k]
            bottom_tile = U[image.cell(0, 0)]
            top_tile = U[image.cell(0, image.shape[1] - 1)]
            assert tile.bottom == bottom_tile.bottom
            assert tile.top == top_tile.top

    def test_refuses_unverified_markers(self):
        with pytest.raises(MarkerError) as info:
            derive(U, MarkerSet(frozenset({0}), 2), 2)
        assert not info.value.report


class TestDeriveVToW:
    def test_six_singles_and_thirteen_fusions(self):
        d = derive(V, MarkerSet(V_MARKERS, 1), 1)
        assert len(d.derived) == 19
        assert d.singles == (4, 5, 16, 17, 18, 20)
        assert len(d.fusions) == 13

    def test_matches_reference_listing(self):
        d = derive(V, MarkerSet(V_MARKERS, 1), 1)
        perm = d.permutation_to(W)
        assert perm is not None
        ts, morph = d.relabeled(perm)
        assert ts == W
        assert morph.to_json_table() == {str(k): v for k, v in BETA_TABLE.items()}

    def test_recognizable_by_construction(self):
        d = derive(V, MarkerSet(V_MARKERS, 1), 1)
        assert check_recognizability_criterion(d.morphism, set(V_MARKERS), 1)

    def test_color_transport(self):
        d = derive(V, MarkerSet(V_MARKERS, 1), 1)
        for k, tile in enumerate(d.derived):
            image = d.morphism.images[k]
            left_tile = V[image.cell(0, 0)]
            right_tile = V[image.cell(image.shape[0] - 1, 0)]
            assert tile.left == left_tile.left
            assert tile.right == right_tile.right


def stabilized_patterns(T, shape, max_radius=4):
    """Pattern set at the first radius where one more ring changes nothing."""
    prev = patterns_with_surrounding(T, shape, 1)
    for r in range(2, max_radius + 1):
        cur = patterns_with_surrounding(T, shape, r)
        if cur == prev:
            return prev
        prev = cur
    raise AssertionError(f"pattern set did not stabilize by radius {max_radius}")


class TestSurjectivitySmoke:
    @pytest.mark.parametrize(
        "T,markers,axis,radius",
        [(U, U_MARKERS, 2, 2), (V, V_MARKERS, 1, 1)],
        ids=["U", "V"],
    )
    def test_admissible_2x2_patterns_lift(self, T, markers, axis, radius):
        # The radius-1 pattern set may contain rectangles outside the shift
        # language (they cannot lift); the stabilized set is what regroups.
        d = derive(T, MarkerSet(frozenset(markers), axis), radius)
        admitted = stabilized_patterns(T, (2, 2))
        lifted_images = []
        for q in patterns_with_surrounding(d.derived, (2, 2), 1):
            lifted_images.append(apply(d.morphism, q))
        for p in admitted:
            found = False
            for image in lifted_images:
                n1, n2 = image.shape
                offsets = (
                    [(dx, 0) for dx in (0, 1) if dx + 2 <= n1]
                    if axis == 1
                    else [(0, dy) for dy in (0, 1) if dy + 2 <= n2]
                )
                for dx, dy in offsets:
                    block = Word2d(
                        tuple(image.columns[dx + i][dy : dy + 2] for i in range(2))
                    )
                    if block == p:
                        found = True
                        break
                if found:
                    break
            assert found, f"pattern {p} has no preimage block"


class TestDegenerate:
    def test_markers_with_nothing_to_fuse(self):
        # No tile can sit east of any other (rights {a,c} never meet lefts
        # {b,d}), so the axis-1 domino set is empty: the markers verify
        # vacuously but both the singles and the fusions come out empty.
        ts = WangTileSet(
            [WangTile("a", "x", "b", "x"), WangTile("c", "y", "d", "y")]
        )
        assert verify_markers(ts, {1}, 1, 1)
        d = derive(ts, MarkerSet(frozenset({1}), 1), 1)
        assert d.degenerate
        assert len(d.derived) == 0
        assert d.singles == () and d.fusions == ()
