"""Constructions that only the tests need, kept out of the library."""

from __future__ import annotations

from wangtiles.core import WangTile, WangTileSet
from wangtiles.morphism import Morphism2d, Word2d
from wangtiles.spectral import IntMatrix


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
