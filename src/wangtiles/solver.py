"""Finite-rectangle tiling queries: existence, enumeration, surroundings.

Rectangles have free boundary colors; only interior adjacencies are
constrained.  The solver works on candidate bitmasks (one bit per tile):
every cell starts with every tile, a pinned cell with its pin alone, and
arc-consistency propagation prunes them to its unique fixpoint.  Existence
and enumeration then run one iterative forward-checking backtracker, most
constrained cell first: existence stops at the first solution, and
enumerations are sorted into canonical cell-scan order (bottom row first,
left to right).  Counting never enumerates: a transfer-matrix sweep
(Stanley, Enumerative Combinatorics I, 4.7) carries the number of partial
tilings per boundary-color state over the propagated masks, row by row
along the shorter side, so its cost grows with the number of states, not
with the count, and a sweep whose states pass MAX_COUNT_STATES is refused.

Propagation works by arc (AC-3, Mackworth 1977): a queue holds the cells
whose mask changed, and popping one revises each of its four neighbors
against it alone, queueing the neighbors that shrink.  So a change costs at
most four unions, and a cell that never changes costs nothing.  When every
tile of the set has a partner on each of its four sides, the all-tiles
start is already arc-consistent, so the queue starts at the pinned cells
and a free rectangle needs no propagation at all; otherwise it starts with
every cell.  Either way the fixpoint is the same.

The unions are memoized: for each adjacency direction, a dict per tile set
maps a candidate mask to the union of its tiles' neighbor masks, and fills
an entry the first time that mask is asked for.  Propagation meets few
distinct masks, so a revision is one dict lookup and a fresh tile set pays
only for the masks it uses.

Surroundings are answered one pattern at a time through a memo kept per
tile set: for each domino or block, the largest radius known to survive and
the smallest known to fail.  Surroundings are monotone in the radius, so a
question the bounds leave open costs one search at the radius asked, and
callers such as the marker checks ask only about the pairs their answer
depends on.  The memo is filled by those searches and by harvested patches:
a valid patch is a surrounding witness for every 2x2 block inside it, at
the largest radius whose window fits in the patch.  The valid patterns of
a shape are enumerated once per tile set and filtered at each radius asked.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Literal, Mapping, Optional, Union

from .core import WangTileSet
from .morphism import Word2d

Mode = Literal["exists", "enumerate", "count"]


def violations(T: WangTileSet, w: Word2d) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Each internal edge whose two colors differ, as a (cell, east or north cell) pair.

    Column-major, and at each cell the east edge before the north edge.  Each
    column's colors are read once and compared with the next column's.
    """
    tiles = list(T)
    columns = w.columns
    for x, col in enumerate(columns):
        cells = [tiles[a] for a in col]
        east: set[int] = set()
        if x + 1 < len(columns):
            east = _mismatches([t.right for t in cells], [tiles[a].left for a in columns[x + 1]])
        north = _mismatches([t.top for t in cells[:-1]], [t.bottom for t in cells[1:]])
        if east or north:
            for y in sorted(east | north):
                if y in east:
                    yield ((x, y), (x + 1, y))
                if y in north:
                    yield ((x, y), (x, y + 1))


def _mismatches(colors: list[str], others: list[str]) -> set[int]:
    """The positions at which two equally long color lists differ."""
    if colors == others:
        return set()
    return {y for y, (c, d) in enumerate(zip(colors, others)) if c != d}


def is_valid_pattern(T: WangTileSet, w: Word2d) -> bool:
    """Do all internal adjacencies of the pattern match in color?"""
    return next(violations(T, w), None) is None


class _Union(dict):
    """Candidate mask -> union of the per-tile neighbor masks of its tiles,
    each entry computed the first time its mask is asked for."""

    __slots__ = ("per_tile",)

    def __init__(self, per_tile: tuple[int, ...]):
        super().__init__()
        self.per_tile = per_tile

    def __missing__(self, over: int) -> int:
        acc = 0
        rest = over
        while rest:
            low = rest & -rest
            acc |= self.per_tile[low.bit_length() - 1]
            rest ^= low
        self[over] = acc
        return acc


class _Tables:
    """Per-tile-set adjacency bitmasks and memos, built once per tile set.

    _tables() hands out one instance per tile set, so instances compare by
    identity.
    """

    __slots__ = ("full", "partnered", "right", "left", "top", "bottom", "known", "patterns")

    def __init__(
        self, full: int, partnered: bool, right: _Union, left: _Union, top: _Union, bottom: _Union
    ):
        self.full = full
        # Every tile has a partner on each of its four sides, so the all-tiles
        # start is arc-consistent and propagation starts at the pins alone.
        self.partnered = partnered
        # The tiles that may sit east, west, north and south of each tile t
        # (per_tile[t]), and their unions over candidate masks.
        self.right = right
        self.left = left
        self.top = top
        self.bottom = bottom
        # Pattern -> (largest radius known to survive, smallest radius known to
        # fail or None); filled by the surrounding queries and by harvest(),
        # shared on purpose.
        self.known = {}
        # Shape -> every valid pattern of that shape, sorted by column tuples.
        self.patterns = {}


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
    right_succ = tuple(by_left.get(t.right, 0) for t in T)
    left_pred = tuple(by_right.get(t.left, 0) for t in T)
    top_succ = tuple(by_bottom.get(t.top, 0) for t in T)
    bottom_pred = tuple(by_top.get(t.bottom, 0) for t in T)
    return _Tables(
        full=(1 << len(T)) - 1,
        partnered=all(map(all, (right_succ, left_pred, top_succ, bottom_pred))),
        right=_Union(right_succ),
        left=_Union(left_pred),
        top=_Union(top_succ),
        bottom=_Union(bottom_pred),
    )


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
    right, left, top, bottom = tb.right, tb.left, tb.top, tb.bottom
    pending = set(changed)
    last_row = width * (height - 1)
    while pending:
        c = pending.pop()
        m = masks[c]
        x = c % width
        if x + 1 < width:
            old = masks[c + 1]
            new = old & right[m]
            if new != old:
                if not new:
                    return False
                masks[c + 1] = new
                pending.add(c + 1)
        if x:
            old = masks[c - 1]
            new = old & left[m]
            if new != old:
                if not new:
                    return False
                masks[c - 1] = new
                pending.add(c - 1)
        if c < last_row:
            old = masks[c + width]
            new = old & top[m]
            if new != old:
                if not new:
                    return False
                masks[c + width] = new
                pending.add(c + width)
        if c >= width:
            old = masks[c - width]
            new = old & bottom[m]
            if new != old:
                if not new:
                    return False
                masks[c - width] = new
                pending.add(c - width)
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


# _count refuses once its frontier holds more boundary states than this.  A
# free 10x10 rectangle of U peaks at 41,379 states and passes; 11x11 peaks at
# 94,667 and is refused.  A state costs about 170 bytes at a side of 40
# cells, so a refused sweep stays near 10 MB.
MAX_COUNT_STATES = 1 << 16


class CountTooLarge(ValueError):
    """A count whose sweep frontier would hold more than MAX_COUNT_STATES states."""


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
    four neighbors and an undo trail.  The search keeps its own stack, so its
    depth is bounded by memory, not by the interpreter's recursion limit.
    """
    pool = [i for i, m in enumerate(masks) if m.bit_count() > 1]
    assigned = [m.bit_count() == 1 for m in masks]
    neighbors = []
    for idx in range(width * height):
        x, y = idx % width, idx // width
        nbs = []
        if x + 1 < width:
            nbs.append((idx + 1, tb.right.per_tile))
        if x > 0:
            nbs.append((idx - 1, tb.left.per_tile))
        if y + 1 < height:
            nbs.append((idx + width, tb.top.per_tile))
        if y > 0:
            nbs.append((idx - width, tb.bottom.per_tile))
        neighbors.append(nbs)

    def most_constrained() -> int:
        best, best_count = -1, 1 << 30
        for i in pool:
            if assigned[i]:
                continue
            c = masks[i].bit_count()
            if c < best_count:
                best, best_count = i, c
                if c == 2:
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
        tile = bit.bit_length() - 1
        trail = []
        for nb, allowed in neighbors[cell]:
            old = masks[nb]
            new = old & allowed[tile]
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
    CountTooLarge.
    """
    if width < 1 or height < 1:
        raise ValueError("rectangle dimensions must be >= 1")
    if mode not in ("exists", "enumerate", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    pins = dict(pins or {})
    for (x, y), tile in pins.items():
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"pin {(x, y)} outside the {width}x{height} rectangle")
        if not (0 <= tile < len(T)):
            raise ValueError(f"pin tile index {tile} out of range")
    tb = _tables(T)
    masks, changed = _initial_masks(width, height, pins, tb)
    # An empty tile set tiles nothing, but _propagate never empties a cell
    # that starts empty, so that case is answered here.
    if not tb.full or not _propagate(masks, width, height, tb, changed):
        return False if mode == "exists" else ([] if mode == "enumerate" else 0)
    if mode == "count":
        return _count(T, masks, width, height)
    found = _solutions(masks, width, height, tb)
    if mode == "exists":
        return next(found, None) is not None
    # Row-major tile tuples sort into canonical scan order (y outer, x inner).
    scans = sorted(tuple(m.bit_length() - 1 for m in sol) for sol in found)
    return [
        Word2d(tuple(tuple(s[y * width + x] for y in range(height)) for x in range(width)))
        for s in scans
    ]


def pattern_has_surrounding(T: WangTileSet, pattern: Word2d, radius: int) -> bool:
    """Can the pattern be extended by a radius-r ring on every side?

    The ring is one pattern-shape thick per unit of radius: the extended
    rectangle has shape (n1*(1+2r), n2*(1+2r)) with the pattern pinned at
    offset (n1*r, n2*r).  For a single letter this is the plain r-cell ring.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return is_valid_pattern(T, pattern)
    n1, n2 = pattern.shape
    pins = {
        (x + n1 * radius, y + n2 * radius): pattern.cell(x, y)
        for x in range(n1)
        for y in range(n2)
    }
    side = 1 + 2 * radius
    return bool(solve_rectangle(T, n1 * side, n2 * side, pins, "exists"))


def domino(i: int, j: int, direction: int) -> Word2d:
    """The two-tile word with tile j east of tile i (axis 1) or north of it (axis 2)."""
    return Word2d(((i,), (j,))) if direction == 1 else Word2d(((i, j),))


def _survives(
    T: WangTileSet, known: dict[Word2d, tuple[int, Optional[int]]], pattern: Word2d, radius: int
) -> bool:
    """pattern_has_surrounding through the memo: a radius the known bounds
    leave open is solved once, at that radius, and its answer moves one bound."""
    alive, dead = known.get(pattern, (-1, None))
    if radius <= alive:
        return True
    if dead is not None and radius >= dead:
        return False
    if pattern_has_surrounding(T, pattern, radius):
        known[pattern] = (radius, dead)
        return True
    known[pattern] = (alive, radius)
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
        pattern = Word2d(key)
        alive, dead = known.get(pattern, (-1, None))
        if r > alive:
            known[pattern] = (r, dead)


def known_to_survive(T: WangTileSet, pattern: Word2d, radius: int) -> bool:
    """Is the pattern already known, without solving, to survive at the radius?"""
    return radius <= _tables(T).known.get(pattern, (-1, None))[0]


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
    known = _tables(T).known
    return (
        (i, j)
        for i, u in enumerate(T)
        for j, v in enumerate(T)
        if (u.right == v.left if direction == 1 else u.top == v.bottom)
        and (where is None or where(i, j))
        and _survives(T, known, domino(i, j, direction), radius)
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
        candidates = tb.patterns[w, h] = sorted(solve_rectangle(T, w, h, None, "enumerate"))
    return [p for p in candidates if _survives(T, tb.known, p, radius)]
