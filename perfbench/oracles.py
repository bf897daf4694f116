"""Correctness oracles written for the benchmark, independent of wangtiles.

Tiles are plain (right, top, left, bottom) color tuples and patterns plain
tuples of columns (each column bottom to top), so nothing here calls the
program under test.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

Tile = tuple[str, str, str, str]  # right, top, left, bottom
Matrix = list[list[int]]


def pattern_is_valid(tiles: Sequence[Tile], columns: Sequence[Sequence[int]]) -> bool:
    """Does every interior edge of the pattern join equal colors?"""
    for x, col in enumerate(columns):
        east = columns[x + 1] if x + 1 < len(columns) else None
        for y, a in enumerate(col):
            if east is not None and tiles[a][0] != tiles[east[y]][2]:
                return False
            if y + 1 < len(col) and tiles[a][1] != tiles[col[y + 1]][3]:
                return False
    return True


def count_tilings(tiles: Sequence[Tile], width: int, height: int) -> int:
    """Number of width x height patterns with free boundary, by row transfer.

    Rows run along the shorter side: every valid row is listed once, and the
    count is carried upward keyed by the top colors of the last row.
    """
    if width > height:  # reflect through the diagonal: (r, t, l, b) -> (t, r, b, l)
        tiles = [(t, r, b, l) for r, t, l, b in tiles]
        width, height = height, width
    rows: list[tuple[int, ...]] = [(i,) for i in range(len(tiles))]
    for _ in range(width - 1):
        rows = [r + (j,) for r in rows for j in range(len(tiles)) if tiles[r[-1]][0] == tiles[j][2]]
    tops = [tuple(tiles[i][1] for i in r) for r in rows]
    bottoms = [tuple(tiles[i][3] for i in r) for r in rows]
    ways = Counter(tops)
    for _ in range(height - 1):
        step: Counter = Counter()
        for top, bottom in zip(tops, bottoms):
            n = ways.get(bottom)
            if n:
                step[top] += n
        ways = step
    return sum(ways.values())


def incidence_from_table(table: dict[int, list[list[int]]], size: int) -> Matrix:
    """Entry (i, j) counts letter i in the image of letter j."""
    m = [[0] * size for _ in range(size)]
    for j, columns in table.items():
        for col in columns:
            for i in col:
                m[i][j] += 1
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(a: Matrix, k: int) -> Matrix:
    """a**k by repeated squaring (k >= 0)."""
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def primitivity_exponent(a: Matrix) -> int:
    """Smallest e with a**e entrywise positive; the matrix must be primitive."""
    n = len(a)
    bound = (n - 1) ** 2 + 1
    pattern = [[int(x > 0) for x in row] for row in a]
    power = pattern
    for e in range(1, bound + 1):
        if all(all(row) for row in power):
            return e
        power = [[int(x > 0) for x in row] for row in mat_mul(power, pattern)]
    raise ValueError("matrix is not primitive")


# Numbers a + b*phi of Z[phi] as pairs (a, b), with phi**2 = phi + 1.

def golden_mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = u, v
    return (a * c + b * d, a * d + b * c + b * d)


def phi_power(m: int) -> tuple[int, int]:
    """phi**m = F(m-1) + F(m) * phi for m >= 1."""
    prev, cur = 0, 1  # F(0), F(1)
    for _ in range(m - 1):
        prev, cur = cur, prev + cur
    return (prev, cur)


def golden_poly_eval(coeffs_ascending: Sequence[int], x: tuple[int, int]) -> tuple[int, int]:
    """Horner evaluation of an integer polynomial at x in Z[phi]."""
    acc = (0, 0)
    for c in reversed(coeffs_ascending):
        a, b = golden_mul(acc, x)
        acc = (a + c, b)
    return acc
