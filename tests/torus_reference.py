"""Periodic tilings found by brute force, kept as an oracle for the tests.

A tiling with periods p and q along the two axes is a tiling of the p x q
torus.  Its rows are cyclic rows of width p: each tile's right color is the
next tile's left color, the last tile's right color the first tile's left.
Row s stacks on row r when r's top colors are s's bottom colors, so a (p, q)
torus tiling is a closed walk of length q in the graph whose vertices are
words of p horizontal colors and whose edges are the cyclic rows, each from
its bottom colors to its top colors.  The oracle imports only wangtiles.core
and shares no code with the certification pipeline.
"""

from __future__ import annotations

from typing import Optional

from wangtiles.core import WangTile, WangTileSet

Row = tuple[WangTile, ...]


def cyclic_rows(T: WangTileSet, p: int) -> list[Row]:
    """Every row of p tiles of T that closes into a cycle."""
    rows: list[Row] = [(t,) for t in T]
    for _ in range(p - 1):
        rows = [r + (t,) for r in rows for t in T if r[-1].right == t.left]
    return [r for r in rows if r[-1].right == r[0].left]


def torus_tiling(T: WangTileSet, p: int, q: int) -> Optional[list[Row]]:
    """The q rows, bottom to top, of a p-wide and q-high torus tiling by T,
    or None when there is none."""
    edges: dict[tuple, dict[tuple, Row]] = {}
    for r in cyclic_rows(T, p):
        edges.setdefault(tuple(t.bottom for t in r), {})[tuple(t.top for t in r)] = r
    # A closed walk never enters a word that no row leaves: drop those, and
    # the edges into them, until none is left.
    size = -1
    while size != len(edges):
        size = len(edges)
        edges = {a: {b: r for b, r in out.items() if b in edges} for a, out in edges.items()}
        edges = {a: out for a, out in edges.items() if out}
    for start in edges:
        # layers[k] sends each word k steps from start to a word and a row
        # that reach it.
        layers: list[dict[tuple, tuple]] = [{start: ()}]
        for _ in range(q):
            layers.append({b: (a, r) for a in layers[-1] for b, r in edges[a].items()})
        if start in layers[-1]:
            rows, word = [], start
            for layer in reversed(layers[1:]):
                word, row = layer[word]
                rows.append(row)
            return rows[::-1]
    return None
