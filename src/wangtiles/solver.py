"""Finite-rectangle tiling queries: existence, enumeration, surroundings.

Rectangles have free boundary colors; only interior adjacencies are
constrained.  The solver works on candidate bitmasks (one bit per tile):
every cell starts with every tile, a pinned cell with its pin alone, and
arc-consistency propagation prunes them to its unique fixpoint.  Existence
and enumeration then run one iterative forward-checking backtracker, most
constrained cell first: existence stops at the first solution, and
enumerations are sorted into canonical cell-scan order (bottom row first,
left to right).  The scan for that cell stops at the first cell with at most
two candidates: one with a single candidate cannot be beaten, since forward
checking leaves no cell empty.  Propagation and search read one neighbor
list per rectangle shape, built the first time the shape is asked about and
kept for the last few shapes.  Counting never enumerates: a transfer-matrix
sweep (Stanley, Enumerative Combinatorics I, 4.7) carries the number of
partial tilings per boundary-color state over the propagated masks, row by
row along the shorter side, so its cost grows with the number of states,
not with the count, and a sweep whose states pass MAX_COUNT_STATES is refused.
An enumeration counts first, and refuses to list more than MAX_COUNT_STATES
tilings, so it cannot run away on a large rectangle.

Propagation works by arc (AC-3, Mackworth 1977): a queue holds the cells
whose mask changed, and popping one revises each of its four neighbors
against it alone, queueing the neighbors that shrink.  So a change costs at
most four unions, and a cell that never changes costs nothing.  When every
tile of the set has a partner on each of its four sides, the all-tiles
start is already arc-consistent, so the queue starts at the pinned cells
and a free rectangle needs no propagation at all; otherwise it starts with
every cell.  Either way the fixpoint is the same.

The unions are memoized in one dict per tile set: it maps a candidate mask
to the four unions (east, west, north, south) of its tiles' neighbor masks,
and fills an entry the first time that mask is asked for.  So a popped cell
costs one lookup for its four revisions, and a fresh tile set computes each
mask's neighbors once, for the masks it meets (about 176 in a pinned window
of 8 to 16 cells a side on a fresh relabeling of U).  No table is built
ahead of its first miss: each certify step and each benchmark query starts
from a fresh tile set, and tables built eagerly were slower.

Surroundings are answered one pattern at a time through a memo kept per
tile set: for each domino or block, the largest radius known to survive and
the smallest known to fail.  The memo is keyed by the pattern's column
tuple, the tuple a Word2d wraps, so asking about a domino or a harvested
block builds no Word2d and hashes no Python-level value.  Surroundings are
monotone in the radius, so a question the bounds leave open costs one
search at the radius asked, and callers such as the marker checks ask only
about the pairs their answer depends on.  The color-matching pairs of each
axis are listed once per tile set, in sorted order, the first time that
axis is asked about.  The memo is filled by those searches and by harvested
patches: a valid patch is a surrounding witness for every 2x2 block inside
it, at the largest radius whose window fits in the patch.  The valid
patterns of a shape are enumerated once per tile set and filtered at each
radius asked.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Literal, Mapping, Optional, Union

from .core import WangTileSet
from .morphism import Word2d

Mode = Literal["exists", "enumerate", "count"]


def violations(T: WangTileSet, w: Word2d) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Each internal edge whose two colors differ, as a (cell, east or north cell) pair.

    Column-major, and at each cell the east edge before the north edge.  A
    letter outside 0..len(T)-1 raises ValueError naming its cell.  Only the
    columns whose color codes (_codes) differ from their own one cell up or
    from the next column's are scanned cell by cell, or all without codes."""
    tiles = list(T)
    columns = w.columns
    raw = column_bytes(columns, len(tiles))
    suspects: Iterable[int] = range(len(columns))
    codes = _codes(T)
    if raw is not None and codes:
        right, top, left, bottom = codes
        suspects = [
            x for x, col in enumerate(raw)
            if col.translate(top)[:-1] != col.translate(bottom)[1:]
            or (x + 1 < len(raw) and col.translate(right) != raw[x + 1].translate(left))
        ]
    for x in suspects:
        cells = [tiles[a] for a in columns[x]]
        east = [tiles[a].left for a in columns[x + 1]] if x + 1 < len(columns) else []
        for y, t in enumerate(cells):
            if east and t.right != east[y]:
                yield ((x, y), (x + 1, y))
            if y + 1 < len(cells) and t.top != cells[y + 1].bottom:
                yield ((x, y), (x, y + 1))


def column_bytes(columns: tuple[tuple[int, ...], ...], n: int) -> Optional[list[bytes]]:
    """The columns as byte strings, or None when n > 256.  Raises ValueError
    naming the first cell, column by column, whose letter lies outside 0..n-1."""
    try:
        raw = [bytes(col) for col in columns]
    except ValueError:  # a letter below 0 or above 255
        raw = None
    if raw and n <= 256 and not b"".join(raw).translate(None, bytes(range(n))):
        return raw
    for x, col in enumerate(columns):
        for y, a in enumerate(col):
            if not 0 <= a < n:
                raise ValueError(f"cell ({x},{y}) holds letter {a}, outside 0..{n - 1}")
    return None


def _codes(T: WangTileSet) -> tuple[bytes, ...]:
    """Byte translation tables from a tile to the code of its right, top, left
    and bottom color, built once per tile set; right and left colors share one
    code space, top and bottom another.  Empty when a space needs over 256."""
    tb = _tables(T)
    if tb.codes is None:
        spaces = [{c: i for i, c in enumerate(cs)} for cs in (T.vertical_colors, T.horizontal_colors)]
        tb.codes = () if max(map(len, spaces)) > 256 else tuple(
            bytes(spaces[k % 2][t.as_tuple()[k]] for t in T).ljust(256, b"\0") for k in range(4)
        )
    return tb.codes


def is_valid_pattern(T: WangTileSet, w: Word2d) -> bool:
    """Do all internal adjacencies of the pattern match in color?"""
    return next(violations(T, w), None) is None


class _Unions(dict):
    """Candidate mask -> (east, west, north, south): the unions of the
    per-tile neighbor masks of its tiles on each side, each entry computed
    the first time its mask is asked for."""

    __slots__ = ("per_tile",)

    def __init__(self, per_tile: tuple[tuple[int, int, int, int], ...]):
        super().__init__()
        self.per_tile = per_tile

    def __missing__(self, over: int) -> tuple[int, int, int, int]:
        east = west = north = south = 0
        rest = over
        while rest:
            low = rest & -rest
            e, w, n, s = self.per_tile[low.bit_length() - 1]
            east |= e
            west |= w
            north |= n
            south |= s
            rest ^= low
        entry = self[over] = (east, west, north, south)
        return entry


class _Tables:
    """Per-tile-set adjacency bitmasks and memos, built once per tile set.

    _tables() hands out one instance per tile set, so instances compare by
    identity.
    """

    __slots__ = ("full", "partnered", "per_tile", "unions", "pairs", "known", "patterns", "codes")

    def __init__(self, per_tile: tuple[tuple[int, int, int, int], ...]):
        self.full = (1 << len(per_tile)) - 1
        # Every tile has a partner on each of its four sides, so the all-tiles
        # start is arc-consistent and propagation starts at the pins alone.
        self.partnered = all(map(all, per_tile))
        # The tiles that may sit east, west, north and south of each tile t
        # (per_tile[t]), and the same four unions over candidate masks.
        self.per_tile = per_tile
        self.unions = _Unions(per_tile)
        # Axis -> its color-matching pairs (i, j) in sorted order, each with
        # its domino's column tuple; listed on the first question of the axis.
        self.pairs = {}
        # Column tuple of a pattern -> (largest radius known to survive,
        # smallest radius known to fail or None); filled by the surrounding
        # queries and by harvest(), shared on purpose.
        self.known = {}
        # Shape -> every valid pattern of that shape, sorted by column tuples.
        self.patterns = {}
        # violations' color code tables (_codes), built on its first call.
        self.codes = None


# Small on purpose: the memos grow with every query, and every fresh
# relabeling of a tile set gets its own entry.
@lru_cache(maxsize=8)
def _tables(T: WangTileSet) -> _Tables:
    by_left: dict[str, int] = {}
    by_right: dict[str, int] = {}
    by_bottom: dict[str, int] = {}
    by_top: dict[str, int] = {}
    for i, t in enumerate(T):
        by_left[t.left] = by_left.get(t.left, 0) | (1 << i)
        by_right[t.right] = by_right.get(t.right, 0) | (1 << i)
        by_bottom[t.bottom] = by_bottom.get(t.bottom, 0) | (1 << i)
        by_top[t.top] = by_top.get(t.top, 0) | (1 << i)
    per_tile = tuple(
        (
            by_left.get(t.right, 0),
            by_right.get(t.left, 0),
            by_bottom.get(t.top, 0),
            by_top.get(t.bottom, 0),
        )
        for t in T
    )
    return _Tables(per_tile)


# Small on purpose: a 20x20 geometry holds about 120 KB, and a caller that
# asks about many shapes keeps only the last few.
@lru_cache(maxsize=8)
def _neighbors(width: int, height: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each cell's neighbors in a width x height rectangle, cells numbered
    row by row from the bottom, each with the side it lies on: the index of
    its entry in a per_tile or unions tuple (0 east, 1 west, 2 north, 3 south)."""
    cells = []
    for idx in range(width * height):
        x, y = idx % width, idx // width
        nbs = []
        if x + 1 < width:
            nbs.append((idx + 1, 0))
        if x > 0:
            nbs.append((idx - 1, 1))
        if y + 1 < height:
            nbs.append((idx + width, 2))
        if y > 0:
            nbs.append((idx - width, 3))
        cells.append(tuple(nbs))
    return tuple(cells)


def _propagate(
    masks: list[int], width: int, height: int, tb: _Tables, changed: Iterable[int]
) -> bool:
    """Arc consistency to a fixpoint, revising from the cells that changed.

    Popping cell c revises each neighbor n against c alone: masks[n] keeps
    only the tiles that fit beside some tile of masks[c].  A neighbor that
    shrinks is queued in turn, so unchanged cells cost nothing.  ``changed``
    must hold every cell that some neighbor is not yet consistent with.
    False when some cell empties.
    """
    unions = tb.unions
    neighbors = _neighbors(width, height)
    pending = set(changed)
    while pending:
        c = pending.pop()
        sides = unions[masks[c]]
        for n, side in neighbors[c]:
            old = masks[n]
            new = old & sides[side]
            if new != old:
                if not new:
                    return False
                masks[n] = new
                pending.add(n)
    return True


def _initial_masks(
    width: int, height: int, pins: Mapping[tuple[int, int], int], tb: _Tables
) -> tuple[list[int], Iterable[int]]:
    """Every tile in every cell and one tile in a pinned cell, with the cells
    _propagate must start from: the pins when the tile set is partnered,
    else every cell."""
    masks = [tb.full] * (width * height)
    pinned = [y * width + x for x, y in pins]
    for idx, tile in zip(pinned, pins.values()):
        masks[idx] = 1 << tile
    return masks, pinned if tb.partnered else range(width * height)


# _count refuses once its frontier holds more boundary states than this, and
# an enumeration refuses to list more tilings than this.  A free 10x10
# rectangle of U peaks at 41,379 states and is counted (356,483 tilings, too
# many to list); 11x11 peaks at 94,667 and is refused.  A state costs about
# 170 bytes at a side of 40 cells, so a refused sweep stays near 10 MB.
MAX_COUNT_STATES = 1 << 16


class CountTooLarge(ValueError):
    """A count whose sweep frontier would hold more than MAX_COUNT_STATES
    states, or an enumeration of more than MAX_COUNT_STATES tilings."""


def _count(T: WangTileSet, masks: list[int], width: int, height: int) -> int:
    """Number of completions of the propagated masks, by a transfer-matrix sweep.

    Cells are visited row by row along the shorter side; a wider rectangle is
    swept in its reflection through the diagonal, which turns each tile
    (r, t, l, b) into (t, r, b, l).  A state holds the top colors of the last
    ``side`` cells visited and the right color of the previous cell, and maps
    to the number of partial tilings that reach it.  Colors are numbered from
    1 and packed into one integer, a digit per cell of the row and one more
    for the right color; 0 marks a side with nothing placed yet, and the
    right digit is 0 again after a row's last cell.  Each cell's candidates
    are the tiles of its mask, grouped by the (bottom, left) digits they
    need, and placing one changes those two digits: an XOR with a delta
    fixed per cell and tile.  Raises CountTooLarge once the frontier passes
    MAX_COUNT_STATES.
    """
    shape = f"{width}x{height}"
    code: dict[str, int] = {}
    tiles = [tuple(code.setdefault(c, len(code) + 1) for c in t.as_tuple()) for t in T]
    if width > height:
        tiles = [(t, r, b, l) for r, t, l, b in tiles]
        masks = [masks[y * width + x] for x in range(width) for y in range(height)]
        width, height = height, width
    bits = len(code).bit_length()
    digit = (1 << bits) - 1
    right_at = bits * width
    ways = {0: 1}
    for idx, m in enumerate(masks):
        x, y = idx % width, idx // width
        at = bits * x
        needs: dict[int, dict[int, int]] = {}
        while m:
            r, t, l, b = tiles[(m & -m).bit_length() - 1]
            m &= m - 1
            need = (b if y else 0) << at | (l if x else 0) << right_at
            delta = need ^ (t << at | (0 if x + 1 == width else r) << right_at)
            gives = needs.setdefault(need, {})
            gives[delta] = gives.get(delta, 0) + 1
        groups = {need: tuple(gives.items()) for need, gives in needs.items()}
        select = digit << at | digit << right_at
        step: dict[int, int] = {}
        for state, n in ways.items():
            for delta, k in groups.get(state & select, ()):
                nxt = state ^ delta
                step[nxt] = step.get(nxt, 0) + n * k
            if len(step) > MAX_COUNT_STATES:
                raise CountTooLarge(
                    f"counting a {shape} rectangle needs more than"
                    f" {MAX_COUNT_STATES} boundary states"
                )
        ways = step
    return sum(ways.values())


def _solutions(masks: list[int], width: int, height: int, tb: _Tables) -> Iterator[list[int]]:
    """Yield every completion of the propagated masks, for existence and
    enumeration; counting sweeps the masks instead (_count).

    Each solution is the live ``masks`` list with one bit per cell; copy it to
    keep it past the next step.  The most constrained cell is branched on
    first, its tile bits in ascending order, with forward checking on the
    four neighbors and an undo trail.  The scan for that cell stops at the
    first cell with at most two candidates, so a singleton cell ends it at
    once: no later cell can beat it, since forward checking never leaves a
    cell empty.  The neighbors are the shape's cached list, the one
    _propagate reads.  The search keeps its own stack, so its depth is
    bounded by memory, not by the interpreter's recursion limit.
    """
    pool = [i for i, m in enumerate(masks) if m.bit_count() > 1]
    assigned = [m.bit_count() == 1 for m in masks]
    per_tile = tb.per_tile
    neighbors = _neighbors(width, height)

    def most_constrained() -> int:
        best, best_count = -1, 1 << 30
        for i in pool:
            if assigned[i]:
                continue
            c = masks[i].bit_count()
            if c < best_count:
                best, best_count = i, c
                if c <= 2:
                    break
        return best

    cell = most_constrained()
    if cell == -1:
        yield masks
        return
    assigned[cell] = True
    saved = rem = masks[cell]
    trail: list[tuple[int, int]] = []
    stack: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    while True:
        masks[cell] = saved
        for nb, old in trail:
            masks[nb] = old
        if not rem:
            assigned[cell] = False
            if not stack:
                return
            cell, rem, saved, trail = stack.pop()
            continue
        bit = rem & -rem
        rem ^= bit
        fits = per_tile[bit.bit_length() - 1]
        trail = []
        for nb, side in neighbors[cell]:
            old = masks[nb]
            new = old & fits[side]
            if new != old:
                if new == 0:
                    break
                masks[nb] = new
                trail.append((nb, old))
        else:
            masks[cell] = bit
            nxt = most_constrained()
            if nxt == -1:
                yield masks
                continue
            stack.append((cell, rem, saved, trail))
            cell = nxt
            assigned[cell] = True
            saved = rem = masks[cell]
            trail = []


def solve_rectangle(
    T: WangTileSet,
    width: int,
    height: int,
    pins: Optional[Mapping[tuple[int, int], int]] = None,
    mode: Mode = "exists",
) -> Union[bool, list[Word2d], int]:
    """Tile a width x height rectangle, optionally with pinned cells.

    Mutually inconsistent pins give False / [] / 0, never an error.  A count
    whose sweep would pass MAX_COUNT_STATES boundary states raises
    CountTooLarge, and so does an enumeration, which counts first, when the
    count or its sweep passes MAX_COUNT_STATES.
    """
    if width < 1 or height < 1:
        raise ValueError("rectangle dimensions must be >= 1")
    if mode not in ("exists", "enumerate", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    pins = dict(pins or {})
    n = len(T)
    for (x, y), tile in pins.items():
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"pin {(x, y)} outside the {width}x{height} rectangle")
        if not (0 <= tile < n):
            raise ValueError(f"pin tile index {tile} out of range")
    tb = _tables(T)
    masks, changed = _initial_masks(width, height, pins, tb)
    # An empty tile set tiles nothing, but _propagate never empties a cell
    # that starts empty, so that case is answered here.
    if not tb.full or not _propagate(masks, width, height, tb, changed):
        return False if mode == "exists" else ([] if mode == "enumerate" else 0)
    if mode == "exists":
        return next(_solutions(masks, width, height, tb), None) is not None
    count = _count(T, masks, width, height)
    if mode == "count":
        return count
    if count > MAX_COUNT_STATES:
        raise CountTooLarge(
            f"enumerating a {width}x{height} rectangle would list {count} tilings,"
            f" more than {MAX_COUNT_STATES}"
        )
    # Row-major tile tuples sort into canonical scan order (y outer, x inner).
    scans = sorted(
        tuple(m.bit_length() - 1 for m in sol) for sol in _solutions(masks, width, height, tb)
    )
    return [Word2d(tuple(s[x::width] for x in range(width))) for s in scans]


def pattern_has_surrounding(T: WangTileSet, pattern: Word2d, radius: int) -> bool:
    """Can the pattern be extended by a radius-r ring on every side?

    The ring is one pattern-shape thick per unit of radius: the extended
    rectangle has shape (n1*(1+2r), n2*(1+2r)) with the pattern pinned at
    offset (n1*r, n2*r).  For a single letter this is the plain r-cell ring.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _has_surrounding(T, pattern.columns, radius)


def _has_surrounding(T: WangTileSet, columns: tuple[tuple[int, ...], ...], radius: int) -> bool:
    """pattern_has_surrounding on a pattern's column tuple, pinned straight
    from the columns; radius 0 asks whether the pattern is valid."""
    if radius == 0:
        return is_valid_pattern(T, Word2d(columns))
    n1, n2 = len(columns), len(columns[0])
    pins = {
        (x + n1 * radius, y + n2 * radius): a
        for x, col in enumerate(columns)
        for y, a in enumerate(col)
    }
    side = 1 + 2 * radius
    return bool(solve_rectangle(T, n1 * side, n2 * side, pins, "exists"))


def domino(i: int, j: int, direction: int) -> Word2d:
    """The two-tile word with tile j east of tile i (axis 1) or north of it (axis 2)."""
    return Word2d(((i,), (j,))) if direction == 1 else Word2d(((i, j),))


def _survives(
    T: WangTileSet,
    known: dict[tuple[tuple[int, ...], ...], tuple[int, Optional[int]]],
    key: tuple[tuple[int, ...], ...],
    radius: int,
) -> bool:
    """pattern_has_surrounding through the memo, for the pattern with column
    tuple ``key``: a radius the known bounds leave open is solved once, at
    that radius, and its answer moves one bound."""
    alive, dead = known.get(key, (-1, None))
    if radius <= alive:
        return True
    if dead is not None and radius >= dead:
        return False
    if _has_surrounding(T, key, radius):
        known[key] = (radius, dead)
        return True
    known[key] = (alive, radius)
    return False


def harvest(T: WangTileSet, patch: Word2d) -> None:
    """Record the 2x2 blocks of a valid patch as surviving.

    A block at (x, y) in a W x H patch survives at radius
    min(x//2, (W-x-2)//2, y//2, (H-y-2)//2): the window of that surrounding
    lies inside the patch.  Each block's known radius is raised to the best
    such radius of 1 or more; an invalid patch records nothing.
    """
    if not is_valid_pattern(T, patch):
        return
    known = _tables(T).known
    columns = patch.columns
    width, height = patch.shape
    best: dict[tuple[tuple[int, ...], ...], int] = {}
    for x in range(2, width - 3):
        rx = min(x // 2, (width - x - 2) // 2)
        for y in range(2, height - 3):
            r = min(rx, y // 2, (height - y - 2) // 2)
            key = (columns[x][y : y + 2], columns[x + 1][y : y + 2])
            if r > best.get(key, 0):
                best[key] = r
    for key, r in best.items():
        alive, dead = known.get(key, (-1, None))
        if r > alive:
            known[key] = (r, dead)


def known_to_survive(T: WangTileSet, pattern: Word2d, radius: int) -> bool:
    """Is the pattern already known, without solving, to survive at the radius?"""
    return radius <= _tables(T).known.get(pattern.columns, (-1, None))[0]


def _pairs(tb: _Tables, direction: int) -> list[tuple[tuple[int, int], tuple]]:
    """The color-matching pairs (i, j) along the axis, in sorted order, each
    with its domino's column tuple: j is a tile that may sit east of i (axis
    1) or north of it (axis 2).  Listed once per tile set and axis."""
    pairs = tb.pairs.get(direction)
    if pairs is None:
        side = 0 if direction == 1 else 2
        n = len(tb.per_tile)
        pairs = tb.pairs[direction] = [
            ((i, j), ((i,), (j,)) if direction == 1 else ((i, j),))
            for i, fits in enumerate(tb.per_tile)
            for j in range(n)
            if fits[side] >> j & 1
        ]
    return pairs


def surviving_dominoes(
    T: WangTileSet,
    direction: int,
    radius: int,
    where: Optional[Callable[[int, int], bool]] = None,
) -> Iterator[tuple[int, int]]:
    """Lazily, in sorted order, the color-matching pairs (i, j) along the axis
    that satisfy ``where`` and extend to a radius-r surrounding.

    Only the pairs that pass ``where`` reach the solver, and only as far as
    the caller consumes the iterator.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    tb = _tables(T)
    known = tb.known
    return (
        pair
        for pair, key in _pairs(tb, direction)
        if (where is None or where(*pair)) and _survives(T, known, key, radius)
    )


def dominoes_with_surrounding(
    T: WangTileSet,
    direction: int,
    radius: int,
    where: Optional[Callable[[int, int], bool]] = None,
) -> list[tuple[int, int]]:
    """Ordered index pairs (i, j) whose domino along the axis extends to a
    valid rectangle with a ring of ``radius`` domino-copies on every side;
    only the pairs that satisfy ``where`` are asked about."""
    return list(surviving_dominoes(T, direction, radius, where))


def patterns_with_surrounding(
    T: WangTileSet, shape: tuple[int, int], radius: int
) -> list[Word2d]:
    """All internally valid patterns of the shape admitting a radius-r
    surrounding, sorted by their column tuples, in a fresh list.  The valid
    patterns of a shape are enumerated once per tile set."""
    w, h = shape
    if w < 1 or h < 1:
        raise ValueError("shape components must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    tb = _tables(T)
    candidates = tb.patterns.get((w, h))
    if candidates is None:
        candidates = tb.patterns[w, h] = sorted(
            solve_rectangle(T, w, h, None, "enumerate"), key=attrgetter("columns")
        )
    return [p for p in candidates if _survives(T, tb.known, p.columns, radius)]
