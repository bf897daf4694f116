"""The rectangle search as it stood before its geometry was shared, kept as
an oracle for the tests.

It builds each cell's neighbor list afresh on every call and stops its
most-constrained scan only at a cell with exactly two candidates.  So it
scans past a singleton cell to the end of the pool, but it still branches on
the first cell with the fewest candidates: the library's search must pick
the same cell at every node and yield the same solutions in the same order.
"""

from __future__ import annotations

from typing import Iterator


def reference_solutions(masks: list[int], width: int, height: int, tb) -> Iterator[list[int]]:
    """Yield every completion of the propagated masks, most constrained cell
    first, each as the live ``masks`` list; ``tb`` is the tile set's tables."""
    pool = [i for i, m in enumerate(masks) if m.bit_count() > 1]
    assigned = [m.bit_count() == 1 for m in masks]
    per_tile = tb.per_tile
    # Each cell's neighbors, with the side of per_tile's entry that each reads.
    neighbors = []
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
