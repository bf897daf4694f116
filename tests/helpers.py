"""Constructions that only the tests need, kept out of the library."""

from __future__ import annotations

from typing import Optional

from wangtiles import spectral
from wangtiles.core import WangTile, WangTileSet
from wangtiles.morphism import Morphism2d, Word2d
from wangtiles.spectral import GoldenNumber, GoldenRational, IntMatrix


def identity_morphism(ts: WangTileSet) -> Morphism2d:
    """The morphism sending every letter to itself."""
    return Morphism2d(ts, ts, tuple(Word2d.letter(a) for a in range(len(ts))))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def relabel(ts: WangTileSet, vertical: dict[str, str], horizontal: dict[str, str]) -> WangTileSet:
    """Apply color bijections to every tile, keeping the index order."""
    return WangTileSet(
        WangTile(vertical[t.right], horizontal[t.top], vertical[t.left], horizontal[t.bottom])
        for t in ts
    )


def golden_kernel_vector(M: IntMatrix, eigenvalue: GoldenNumber) -> Optional[list[GoldenRational]]:
    """A nonzero solution of (M - lambda I) x = 0 over Q(phi), or None.

    The library's fraction-free integer kernel vector, divided once by its
    entry in the first free column, which becomes 1.
    """
    kernel = spectral._integer_kernel(M, eigenvalue)
    if kernel is None:
        return None
    d, x = kernel
    den = GoldenRational.of(d)
    return [GoldenRational.of(g) / den for g in x]
