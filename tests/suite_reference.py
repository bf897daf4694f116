"""The product-loop rectangle count that C13 once used as its oracle, kept
as the reference for the depth-first oracle that replaced it.

It tries every assignment of tiles to cells and only then checks the
edges, so it costs |T|^(width*height) checks; the tests run it only on
C13's small cases.
"""

from __future__ import annotations

from itertools import product

from wangtiles.core import WangTile


def product_count(tiles: list[WangTile], width: int, height: int) -> int:
    """Direct enumeration of every assignment."""
    count = 0
    cells = [(x, y) for y in range(height) for x in range(width)]
    for combo in product(range(len(tiles)), repeat=len(cells)):
        grid = {cells[k]: tiles[combo[k]] for k in range(len(cells))}
        ok = True
        for (x, y), t in grid.items():
            if x + 1 < width and t.right != grid[(x + 1, y)].left:
                ok = False
                break
            if y + 1 < height and t.top != grid[(x, y + 1)].bottom:
                ok = False
                break
        count += ok
    return count
