"""Wang tiles, tile sets, fusion, duality and equivalence search.

A Wang tile is a unit square with a color token on each edge, stored as the
tuple (right, top, left, bottom).  Tiles never rotate.  Everything here is an
immutable value; operations are pure functions.
"""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence


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


class Value:
    """Base of the value classes.  Each subclass lists its fields once, in
    constructor order, as _fields; from them it gets a constructor that
    stores each field, given by position or by keyword, __eq__
    (NotImplemented for any other class), __hash__ (the hash of the field
    tuple), a dataclass-style __repr__ and a __reduce__ that calls the
    constructor, so pickling and copying rebuild through __init__.  A
    subclass that checks, normalises or defaults its input writes its own
    __init__."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = [*args, *(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)]
        if kwargs or len(values) != len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes each of {fields} once")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields is not None:
            # Given one name, attrgetter returns the bare value: _key compares
            # it as it is, _values wraps it in the 1-tuple that is hashed.
            get = cls._key = attrgetter(*fields)
            cls._values = get if len(fields) > 1 else staticmethod(lambda x: (get(x),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__name__}({pairs})"

    def __reduce__(self):
        return (self.__class__, self._values(self))


class Frozen(Value):
    """A Value whose attributes cannot be assigned or deleted: both raise
    AttributeError.  Its constructors set fields with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class WangTile(Frozen):
    """A Wang tile (right, top, left, bottom); colors are opaque tokens.

    Equality, hashing and ordering go by the field tuple, as as_tuple() gives it.
    """

    __slots__ = _fields = ("right", "top", "left", "bottom")

    def __init__(self, right: str, top: str, left: str, bottom: str):
        for c in (right, top, left, bottom):
            if not c or any(ch.isspace() for ch in c):
                raise ValueError(f"invalid color token {c!r}")
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "bottom", bottom)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_tuple() < other.as_tuple()

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


class WangTileSet(Frozen):
    """An ordered, duplicate-free collection of Wang tiles.

    Tile indices are stable: ``ts[i]`` is the i-th tile in construction
    order.  Vertical colors (left and right edges) and horizontal colors
    (top and bottom edges) are read off the tiles when asked for.  Equality
    and pickling go by the tile tuple, as for any Value; it writes only its
    own __hash__, which is computed once.
    """

    __slots__ = ("_tiles", "_hash")
    _fields = ("_tiles",)

    def __init__(self, tiles: Iterable[WangTile]):
        tiles = tuple(tiles)
        if len(set(tiles)) != len(tiles):
            seen: dict[WangTile, int] = {}
            for i, t in enumerate(tiles):
                if t in seen:
                    raise ValueError(f"duplicate tile {t.as_tuple()} at indices {seen[t]} and {i}")
                seen[t] = i
        object.__setattr__(self, "_tiles", tiles)
        # Tile sets key the solver's per-set tables, so they are hashed often.
        object.__setattr__(self, "_hash", hash(tiles))

    @property
    def vertical_colors(self) -> frozenset[str]:
        return frozenset(c for t in self._tiles for c in (t.left, t.right))

    @property
    def horizontal_colors(self) -> frozenset[str]:
        return frozenset(c for t in self._tiles for c in (t.top, t.bottom))

    def __len__(self) -> int:
        return len(self._tiles)

    def __iter__(self) -> Iterator[WangTile]:
        return iter(self._tiles)

    def __getitem__(self, i: int) -> WangTile:
        return self._tiles[i]

    def __hash__(self) -> int:
        # String hashes differ between processes: unpickling rebuilds the set
        # through __init__, so the cached hash is computed afresh.
        return self._hash

    def __repr__(self) -> str:
        return f"WangTileSet({len(self)} tiles)"

    def index(self, tile: WangTile) -> int:
        return self._tiles.index(tile)

    def __contains__(self, tile: WangTile) -> bool:
        return tile in self._tiles

    def dual(self) -> "WangTileSet":
        return WangTileSet(t.dual() for t in self._tiles)


def parse_tileset(text: str) -> WangTileSet:
    """Parse the tile-set text format.

    Lines starting with ``#`` (after strip) are comments; blank lines are
    skipped.  Every other line holds exactly four whitespace-separated color
    tokens in the order: right top left bottom.
    """
    tiles: dict[WangTile, int] = {}  # tile -> its line, in input order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 color tokens, got {len(parts)}")
        tile = WangTile(*parts)
        if tile in tiles:
            raise ParseError(
                f"line {lineno}: duplicate tile {tile.as_tuple()} (first on line {tiles[tile]})"
            )
        tiles[tile] = lineno
    return WangTileSet(tiles)


def emit_tileset(ts: WangTileSet) -> str:
    """Inverse of parse_tileset: one tile per line in index order."""
    return "".join(f"{t.right} {t.top} {t.left} {t.bottom}\n" for t in ts)


class Equivalence(Frozen):
    """Witness that two tile sets are equal up to color relabeling.

    vertical and horizontal map the colors of T to those of S, tile_map the
    tile indices.  Its fields are dicts, so it is unhashable."""

    __slots__ = _fields = ("vertical", "horizontal", "tile_map")
    __hash__ = None  # type: ignore[assignment]


def check_equivalence(T: WangTileSet, S: WangTileSet) -> Optional[Equivalence]:
    """Search for bijections of vertical and horizontal colors sending T to S.

    Depth-first over the tiles of T taken breadth first over shared colors,
    each component from its lowest index.  One index sends (edge, color),
    edges 0-3 in as_tuple order, to the S tiles with that color on that edge.
    A tile with a bound color, as is every tile after the first of its
    component, tries only the S tiles of the shortest such cut, in S order;
    the first tries every S tile.  Each try binds all four colors of the tile
    or none.  Returns None when no pair of bijections exists; a None result
    is an answer, not an error.
    """
    if len(T) != len(S):
        return None
    s_tiles = [s.as_tuple() for s in S]
    index: dict[tuple[int, str], list[int]] = {}
    for j, s in enumerate(s_tiles):
        for edge, color in enumerate(s):
            index.setdefault((edge, color), []).append(j)
    t_tiles = [t.as_tuple() for t in T]
    sharing: dict[tuple[int, str], list[int]] = {}  # (family, color) -> T indices
    for i, t in enumerate(t_tiles):
        for edge, color in enumerate(t):
            sharing.setdefault((edge & 1, color), []).append(i)
    order: list[int] = []
    placed = [False] * len(T)
    for root in range(len(T)):
        queue = [] if placed[root] else [root]
        placed[root] = True
        for i in queue:  # read while it grows: breadth first
            for edge, color in enumerate(t_tiles[i]):
                for j in sharing.pop((edge & 1, color), ()):
                    if not placed[j]:
                        placed[j] = True
                        queue.append(j)
        order += queue

    # Edge e of a tile, in as_tuple order, binds through maps[e], a color
    # map, and adds to images[e], the colors it maps to, which keeps the map
    # injective: vertical colors on edges 0 and 2, horizontal on 1 and 3.
    vertical: dict[str, str] = {}
    horizontal: dict[str, str] = {}
    maps = (vertical, horizontal) * 2
    images = (set(), set()) * 2

    def unbind(trail: list) -> None:
        for mapping, taken, a, b in trail:
            del mapping[a]
            taken.discard(b)

    def bind(t: tuple, s: tuple) -> Optional[list]:
        """Bind the four colors of t to those of s, all or none: the new
        bindings, or None when one clashes with a bound color."""
        trail: list = []
        for mapping, taken, a, b in zip(maps, images, t, s):
            image = mapping.get(a)
            if image is None and b not in taken:
                mapping[a] = b
                taken.add(b)
                trail.append((mapping, taken, a, b))
            elif image != b:
                unbind(trail)
                return None
        return trail

    # An explicit stack, so the depth is not bounded by the recursion limit.
    # stack[k] holds the candidate list of T[order[k]], the position in it of
    # the S tile chosen and the bindings that choice made.  No S tile is taken
    # twice: the color maps are injective and the tiles of T distinct, so a
    # second T tile sent to it would clash with a bound color.
    stack: list[tuple[Sequence[int], int, list]] = []
    options: Sequence[int] = ()
    start = 0
    while len(stack) < len(T):
        t = t_tiles[order[len(stack)]]
        if start == 0:  # a new depth, not a return to one
            options = range(len(S))
            for edge, color in enumerate(t):
                image = maps[edge].get(color)
                if image is not None:
                    cut = index.get((edge, image), [])
                    if len(cut) < len(options):
                        options = cut
        for p in range(start, len(options)):
            trail = bind(t, s_tiles[options[p]])
            if trail is not None:
                stack.append((options, p, trail))
                start = 0
                break
        else:
            if not stack:
                return None
            options, p, trail = stack.pop()
            unbind(trail)
            start = p + 1
    tile_map = dict(sorted(zip(order, (cut[p] for cut, p, _ in stack))))
    return Equivalence(vertical, horizontal, tile_map)
