"""Wang tiles, tile sets, fusion, duality and equivalence search.

A Wang tile is a unit square with a color token on each edge, stored as the
tuple (right, top, left, bottom).  Tiles never rotate.  Everything here is an
immutable value; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class ParseError(ValueError):
    """Raised when a tile-set text document is malformed."""


# Fused color tokens concatenate directly ("B"+"F" -> "BF") when every part is
# a single character; otherwise a separator keeps the parts unambiguous.
# Renderers strip the separator for display.
TOKEN_SEP = "·"


def join_tokens(a: str, b: str) -> str:
    if len(a) == 1 and len(b) == 1:
        return a + b
    return a + TOKEN_SEP + b


def display_token(token: str) -> str:
    return token.replace(TOKEN_SEP, "")


@dataclass(frozen=True, order=True)
class WangTile:
    """A Wang tile (right, top, left, bottom); colors are opaque tokens."""

    right: str
    top: str
    left: str
    bottom: str

    def __post_init__(self):
        for c in (self.right, self.top, self.left, self.bottom):
            if not c or any(ch.isspace() for ch in c):
                raise ValueError(f"invalid color token {c!r}")

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.right, self.top, self.left, self.bottom)

    def dual(self) -> "WangTile":
        """Reflection through the positive diagonal: (a,b,c,d) -> (b,a,d,c)."""
        return WangTile(self.top, self.right, self.bottom, self.left)


def fuse(u: WangTile, v: WangTile, direction: int) -> Optional[WangTile]:
    """Glue v onto u along axis ``direction`` (1 = east, 2 = north).

    Returns None when the shared edge colors do not match (the fusion is not
    well-defined).  Fused edges concatenate their color tokens in order.
    """
    if direction == 1:
        if u.right != v.left:
            return None
        return WangTile(
            v.right,
            join_tokens(u.top, v.top),
            u.left,
            join_tokens(u.bottom, v.bottom),
        )
    if direction == 2:
        if u.top != v.bottom:
            return None
        return WangTile(
            join_tokens(u.right, v.right),
            v.top,
            join_tokens(u.left, v.left),
            u.bottom,
        )
    raise ValueError(f"direction must be 1 or 2, got {direction}")


class WangTileSet:
    """An ordered, duplicate-free collection of Wang tiles.

    Tile indices are stable: ``ts[i]`` is the i-th tile in construction
    order.  Vertical colors (left and right edges) and horizontal colors
    (top and bottom edges) are recomputed on construction.
    """

    def __init__(self, tiles: Iterable[WangTile]):
        tiles = tuple(tiles)
        seen: dict[WangTile, int] = {}
        for i, t in enumerate(tiles):
            if t in seen:
                raise ValueError(f"duplicate tile {t.as_tuple()} at indices {seen[t]} and {i}")
            seen[t] = i
        self._tiles = tiles
        self._index = seen
        # Tile sets key the solver's per-set tables, so they are hashed often.
        self._hash = hash(tiles)
        self.vertical_colors = frozenset(c for t in tiles for c in (t.left, t.right))
        self.horizontal_colors = frozenset(c for t in tiles for c in (t.top, t.bottom))

    def __len__(self) -> int:
        return len(self._tiles)

    def __iter__(self) -> Iterator[WangTile]:
        return iter(self._tiles)

    def __getitem__(self, i: int) -> WangTile:
        return self._tiles[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WangTileSet) and self._tiles == other._tiles

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: unpickling rebuilds the set,
        # so the cached hash is computed afresh.
        return (WangTileSet, (self._tiles,))

    def __repr__(self) -> str:
        return f"WangTileSet({len(self)} tiles)"

    def index(self, tile: WangTile) -> int:
        return self._index[tile]

    def __contains__(self, tile: WangTile) -> bool:
        return tile in self._index

    def dual(self) -> "WangTileSet":
        return WangTileSet(t.dual() for t in self._tiles)


def parse_tileset(text: str) -> WangTileSet:
    """Parse the tile-set text format.

    Lines starting with ``#`` (after strip) are comments; blank lines are
    skipped.  Every other line holds exactly four whitespace-separated color
    tokens in the order: right top left bottom.
    """
    tiles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 color tokens, got {len(parts)}")
        tile = WangTile(*parts)
        if any(tile == t for t in tiles):
            raise ParseError(f"line {lineno}: duplicate tile {tile.as_tuple()}")
        tiles.append(tile)
    return WangTileSet(tiles)


def emit_tileset(ts: WangTileSet) -> str:
    """Inverse of parse_tileset: one tile per line in index order."""
    return "".join(f"{t.right} {t.top} {t.left} {t.bottom}\n" for t in ts)


@dataclass(frozen=True)
class Equivalence:
    """Witness that two tile sets are equal up to color relabeling."""

    vertical: dict[str, str]
    horizontal: dict[str, str]
    tile_map: dict[int, int]


def _color_signature(ts: WangTileSet) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Per-color incidence invariants used to prune the equivalence search."""
    vert: dict[str, list[int]] = {c: [0, 0] for c in ts.vertical_colors}
    horiz: dict[str, list[int]] = {c: [0, 0] for c in ts.horizontal_colors}
    for t in ts:
        vert[t.right][0] += 1
        vert[t.left][1] += 1
        horiz[t.top][0] += 1
        horiz[t.bottom][1] += 1
    return (
        {c: tuple(v) for c, v in vert.items()},
        {c: tuple(v) for c, v in horiz.items()},
    )


def check_equivalence(T: WangTileSet, S: WangTileSet) -> Optional[Equivalence]:
    """Search for bijections of vertical and horizontal colors sending T to S.

    Backtracks over tile assignments with forward checking on color-incidence
    multisets.  Returns None when no pair of bijections exists; a None result
    is an answer, not an error.
    """
    if len(T) != len(S):
        return None
    if len(T.vertical_colors) != len(S.vertical_colors):
        return None
    if len(T.horizontal_colors) != len(S.horizontal_colors):
        return None

    vsig_t, hsig_t = _color_signature(T)
    vsig_s, hsig_s = _color_signature(S)
    if sorted(vsig_t.values()) != sorted(vsig_s.values()):
        return None
    if sorted(hsig_t.values()) != sorted(hsig_s.values()):
        return None

    s_tiles = list(S)

    # A T tile may map only to the S tiles with the same signature key: the
    # signatures of its four colors and which of its opposite edges agree.
    def key(t: WangTile, vsig: dict[str, tuple], hsig: dict[str, tuple]) -> tuple:
        return (
            vsig[t.right], vsig[t.left], hsig[t.top], hsig[t.bottom],
            t.right == t.left, t.top == t.bottom,
        )

    # by_edge holds the same lists cut by the color on one edge (0-3 in
    # as_tuple order), so a tile with a bound color tries only the S tiles
    # that carry its image.
    by_key: dict[tuple, list[int]] = {}
    by_edge: dict[tuple, list[int]] = {}
    for j, s in enumerate(s_tiles):
        k = key(s, vsig_s, hsig_s)
        by_key.setdefault(k, []).append(j)
        for edge, color in enumerate(s.as_tuple()):
            by_edge.setdefault((k, edge, color), []).append(j)
    t_keys = [key(t, vsig_t, hsig_t) for t in T]
    cand = [by_key.get(k, []) for k in t_keys]
    order = sorted(range(len(T)), key=lambda i: len(cand[i]))

    vmap: dict[str, str] = {}
    hmap: dict[str, str] = {}
    vused: set[str] = set()
    hused: set[str] = set()
    tile_map: dict[int, int] = {}
    used: set[int] = set()

    def bind(mapping: dict, used_set: set, a: str, b: str, trail: list) -> bool:
        if a in mapping:
            return mapping[a] == b
        if b in used_set:
            return False
        mapping[a] = b
        used_set.add(b)
        trail.append((mapping, used_set, a, b))
        return True

    def unbind(trail: list) -> None:
        for mapping, used_set, a, b in reversed(trail):
            del mapping[a]
            used_set.discard(b)

    def candidates(i: int) -> list[int]:
        """cand[i] without the S tiles that clash with a bound color of T[i]."""
        best = cand[i]
        for edge, color in enumerate(T[i].as_tuple()):
            mapping = vmap if edge % 2 == 0 else hmap
            if color in mapping:
                cut = by_edge.get((t_keys[i], edge, mapping[color]), [])
                if len(cut) < len(best):
                    best = cut
        return best

    # Depth-first over ``order`` with an explicit stack, so the depth is not
    # bounded by the recursion limit.  stack[k] holds the candidate list of
    # depth k, the position in it of the tile chosen there and the bindings
    # it made; candidates are tried in cand order, as a recursive search
    # would, skipping only tiles that a bound color rules out.
    stack: list[tuple[list[int], int, list]] = []
    options: list[int] = []
    start = 0
    while len(stack) < len(order):
        i = order[len(stack)]
        t = T[i]
        if start == 0:  # a new depth, not a return to one
            options = candidates(i)
        for p in range(start, len(options)):
            j = options[p]
            if j in used:
                continue
            s = s_tiles[j]
            trail: list = []
            if (
                bind(vmap, vused, t.right, s.right, trail)
                and bind(vmap, vused, t.left, s.left, trail)
                and bind(hmap, hused, t.top, s.top, trail)
                and bind(hmap, hused, t.bottom, s.bottom, trail)
            ):
                used.add(j)
                tile_map[i] = j
                stack.append((options, p, trail))
                start = 0
                break
            unbind(trail)
        else:
            if not stack:
                return None
            options, p, trail = stack.pop()
            used.discard(tile_map.pop(order[len(stack)]))
            unbind(trail)
            start = p + 1
    return Equivalence(dict(vmap), dict(hmap), dict(tile_map))
