"""Marker detection and the derived-tile-set construction.

A marker set M along an axis is a nonempty proper subset of tiles that never
touch each other along that axis and never touch the complement along the
other axis.  Verification is sound because the solver's domino sets
over-approximate the dominoes of the full shift language: every pair the
check rules out really is forbidden.  Only the dominoes that could break a
condition are asked about, and the candidate search rejects a set at its
first surviving violation.

Deriving regroups every tiling into supertiles: keep the non-marker tiles
that can be followed by another non-marker (the singles K), fuse every
(non-marker, marker) domino into one tile (the fusions P), and map each new
tile back to the letter or domino it came from.  The resulting morphism
satisfies the letter-level recognizability criterion by construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional

from .core import Frozen, WangTile, WangTileSet, fuse
from .morphism import Morphism2d, Word2d, check_recognizability_criterion
from .solver import domino, dominoes_with_surrounding, surviving_dominoes


class MarkerError(ValueError):
    """Marker verification failed; carries the offending report."""

    def __init__(self, report: "MarkerReport"):
        super().__init__(report.summary())
        self.report = report


class DerivationError(ValueError):
    """The derived set or its morphism failed a construction invariant."""


class MarkerSet(Frozen):
    """Candidate marker tiles along an axis (1 or 2).

    Equality and hashing go by (tile_indices, direction).
    """

    __slots__ = _fields = ("tile_indices", "direction")

    def __init__(self, tile_indices: frozenset[int], direction: int):
        if direction not in (1, 2):
            raise ValueError("direction must be 1 or 2")
        object.__setattr__(self, "tile_indices", tile_indices)
        object.__setattr__(self, "direction", direction)


class MarkerReport(Frozen):
    """Outcome of verify_markers: truthy iff the set is verified.

    Equality and hashing go by the two violation tuples.
    """

    __slots__ = _fields = ("same_axis_violations", "cross_axis_violations")

    def __init__(
        self,
        same_axis_violations: tuple[tuple[int, int], ...] = (),
        cross_axis_violations: tuple[tuple[int, int], ...] = (),
    ):
        object.__setattr__(self, "same_axis_violations", same_axis_violations)
        object.__setattr__(self, "cross_axis_violations", cross_axis_violations)

    @property
    def ok(self) -> bool:
        return not self.same_axis_violations and not self.cross_axis_violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "markers verified"
        parts = []
        if self.same_axis_violations:
            parts.append(
                "marker-marker dominoes along the axis: "
                + ", ".join(map(str, self.same_axis_violations))
            )
        if self.cross_axis_violations:
            parts.append(
                "marker/non-marker dominoes across the axis: "
                + ", ".join(map(str, self.cross_axis_violations))
            )
        return "; ".join(parts)


def verify_markers(
    T: WangTileSet, markers: frozenset[int] | set[int], direction: int, radius: int
) -> MarkerReport:
    """Check the two marker conditions against radius-r domino sets."""
    M = frozenset(markers)
    if not M or M == frozenset(range(len(T))):
        raise ValueError("markers must be a nonempty proper subset of the tile indices")
    if any(i < 0 or i >= len(T) for i in M):
        raise ValueError("marker index out of range")
    same, cross = map(tuple, _violations(T, M, direction, radius))
    return MarkerReport(same, cross)


def _violations(
    T: WangTileSet, M: frozenset[int], direction: int, radius: int
) -> tuple[Iterator[tuple[int, int]], Iterator[tuple[int, int]]]:
    """The surviving marker-marker dominoes along the axis and marker/non-marker
    dominoes across it, each lazily and in sorted order."""
    same = surviving_dominoes(T, direction, radius, lambda i, j: i in M and j in M)
    cross = surviving_dominoes(
        T, 3 - direction, radius, lambda i, j: (i in M) != (j in M)
    )
    return same, cross


def _components(edges: list[tuple[str, str]]) -> list[frozenset[str]]:
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for a in parent:
        groups.setdefault(find(a), set()).add(a)
    return [frozenset(g) for g in groups.values()]


def find_marker_candidates(
    T: WangTileSet, direction: int, radius: int
) -> list[MarkerSet]:
    """Verified marker sets built from the cross-direction color graph.

    Linking the two crossing colors of every tile (left-right for axis 2,
    bottom-top for axis 1) partitions the colors into components; each tile
    falls entirely inside one component, so unions of components induce the
    only tile subsets that can pass the cross-axis condition.
    """
    crossing = [(t.left, t.right) if direction == 2 else (t.bottom, t.top) for t in T]
    comps = sorted(_components(crossing), key=lambda c: sorted(c))
    k = len(comps)
    if k > 20:
        raise ValueError(f"too many color components ({k}) for exhaustive unions")
    found: set[frozenset[int]] = set()
    for mask in range(1, (1 << k) - 1):
        chosen = set().union(*(comps[b] for b in range(k) if mask >> b & 1))
        # Every component holds both crossing colors of at least one tile, so
        # a nonempty proper union of components gives a nonempty proper M.
        M = frozenset(i for i, (a, b) in enumerate(crossing) if a in chosen and b in chosen)
        if next(chain(*_violations(T, M, direction, radius)), None) is None:
            found.add(M)
    return [MarkerSet(M, direction) for M in sorted(found, key=lambda M: (len(M), sorted(M)))]


class Derivation(Frozen):
    """A verified desubstitution step: T regrouped into S = singles + fusions.

    Equality and hashing go by all seven fields, in constructor order.
    """

    __slots__ = _fields = (
        "source", "markers", "radius", "derived", "morphism", "singles", "fusions"
    )

    def __init__(
        self,
        source: WangTileSet,
        markers: MarkerSet,
        radius: int,
        derived: WangTileSet,
        morphism: Morphism2d,  # derived -> source
        singles: tuple[int, ...],  # source indices kept as letters
        fusions: tuple[tuple[int, int], ...],  # (non-marker, marker) source pairs
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "markers", markers)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "derived", derived)
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "fusions", fusions)

    @property
    def degenerate(self) -> bool:
        return len(self.derived) == 0

    def permutation_to(self, reference: WangTileSet) -> Optional[list[int]]:
        """perm with reference[perm[k]] == derived[k], or None if tiles differ."""
        if len(reference) != len(self.derived):
            return None
        try:
            return [reference.index(t) for t in self.derived]
        except ValueError:
            return None

    def class_sorted_permutation(self) -> list[int]:
        """Reorder singles and fusions each by tile tuple, singles first."""
        ns = len(self.singles)
        single_order = sorted(range(ns), key=lambda k: self.derived[k].as_tuple())
        fusion_order = sorted(
            range(ns, len(self.derived)), key=lambda k: self.derived[k].as_tuple()
        )
        perm = [0] * len(self.derived)
        for new, old in enumerate(single_order + fusion_order):
            perm[old] = new
        return perm

    def relabeled(self, perm: list[int]) -> tuple[WangTileSet, Morphism2d]:
        """The derived set and morphism with indices renamed by perm."""
        n = len(self.derived)
        tiles: list[Optional[WangTile]] = [None] * n
        images: list[Optional[Word2d]] = [None] * n
        for old in range(n):
            tiles[perm[old]] = self.derived[old]
            images[perm[old]] = self.morphism.images[old]
        ts = WangTileSet(t for t in tiles if t is not None)
        return ts, Morphism2d(ts, self.source, tuple(im for im in images if im is not None))


def regroup(
    T: WangTileSet, markers: MarkerSet, radius: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The singles and fusions read off the radius-r dominoes along the axis.

    The singles are the non-markers that can be followed by another
    non-marker, in source order; the fusions are the (non-marker, marker)
    dominoes, in domino-pair order.  Only dominoes that start with a
    non-marker are asked about, and a non-marker's successors only until one
    survives.
    """
    M = markers.tile_indices
    direction = markers.direction
    singles: list[int] = []
    # The pairs come in sorted order, so once i is a single the filter skips
    # its remaining successors without solving them.
    for i, _ in surviving_dominoes(
        T, direction, radius, lambda i, j: i not in M and j not in M and i not in singles[-1:]
    ):
        singles.append(i)
    fusions = dominoes_with_surrounding(T, direction, radius, lambda i, j: i not in M and j in M)
    return tuple(singles), tuple(fusions)


def derive(T: WangTileSet, markers: MarkerSet, radius: int) -> Derivation:
    """Build the derived tile set and its morphism back to T.

    Refuses (with the verification report) unless the markers verify at the
    given radius.  The derived listing is singles in source order followed by
    fusions in domino-pair order.
    """
    report = verify_markers(T, markers.tile_indices, markers.direction, radius)
    if not report:
        raise MarkerError(report)
    direction = markers.direction
    M = markers.tile_indices
    singles, fusions = regroup(T, markers, radius)

    tiles: list[WangTile] = [T[i] for i in singles]
    images: list[Word2d] = [Word2d.letter(i) for i in singles]
    for i, j in fusions:
        fused = fuse(T[i], T[j], direction)
        if fused is None:
            raise DerivationError(f"domino {(i, j)} does not match in color")
        tiles.append(fused)
        images.append(domino(i, j, direction))
    try:
        derived = WangTileSet(tiles)
    except ValueError as e:
        # Two singles/fusions produced the same tile: the regrouping map
        # would not be injective, so no recognizable morphism comes out.
        raise ValueError(f"derived tiles collide: {e}") from e
    morphism = Morphism2d(derived, T, tuple(images))
    if tiles and not check_recognizability_criterion(morphism, set(M), direction):
        raise DerivationError("derivation produced a non-recognizable morphism")
    return Derivation(
        source=T,
        markers=markers,
        radius=radius,
        derived=derived,
        morphism=morphism,
        singles=singles,
        fusions=fusions,
    )
