"""Constructions that only the tests need, kept out of the library."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Optional

from wangtiles import spectral
from wangtiles.certify import Certificate, Step
from wangtiles.core import Equivalence, WangTile, WangTileSet
from wangtiles.corpus import NamedArtifact
from wangtiles.derivation import Derivation, MarkerReport, MarkerSet
from wangtiles.morphism import Morphism2d, Word2d
from wangtiles.render import StoneGeometry
from wangtiles.spectral import GoldenNumber, GoldenRational, IntMatrix, IntPolynomial


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


# The eight symmetries of the square, as maps of a tile's (right, top, left,
# bottom) colors: the rotations counterclockwise, then the mirrors in the
# vertical axis, the horizontal axis, the diagonal and the antidiagonal.
D4 = {
    "identity": lambda r, t, l, b: (r, t, l, b),
    "rot90": lambda r, t, l, b: (b, r, t, l),
    "rot180": lambda r, t, l, b: (l, b, r, t),
    "rot270": lambda r, t, l, b: (t, l, b, r),
    "mirror1": lambda r, t, l, b: (l, t, r, b),
    "mirror2": lambda r, t, l, b: (r, b, l, t),
    "diagonal": lambda r, t, l, b: (t, r, b, l),
    "antidiagonal": lambda r, t, l, b: (b, l, t, r),
}


def golden_kernel_vector(M: IntMatrix, eigenvalue: GoldenNumber) -> Optional[list[GoldenRational]]:
    """A nonzero solution of (M - lambda I) x = 0 over Q(phi), or None.

    The library's integer kernel vector x divided once by its last nonzero
    entry.  For an integer lambda = a that entry is x's pivot in the first
    free column of M - a I, since in reduced echelon form every later pivot
    row is zero in that column.  When the kernel is a line, the result is
    the vector that elimination over Q(phi) gives, 1 in its first free
    column; for an irrational lambda with a larger eigenspace it is some
    vector of that eigenspace.
    """
    x = spectral._integer_kernel(M, eigenvalue)
    if x is None:
        return None
    den = GoldenRational.of(next(g for g in reversed(x) if not g.is_zero()))
    return [GoldenRational.of(g) / den for g in x]


class DeadlineExpired(Exception):
    pass


@contextmanager
def deadline(seconds: int):
    """Raise DeadlineExpired in the block once the seconds have passed."""

    def expire(signum, frame):
        raise DeadlineExpired(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def value_samples() -> dict[str, object]:
    """One instance of each value class, built afresh on every call."""
    T = WangTileSet([WangTile("A", "B", "A", "B"), WangTile("C", "B", "C", "B")])
    swap = Morphism2d(T, T, (Word2d.letter(1), Word2d.letter(0)))
    return {
        "WangTile": WangTile("J", "O", "J", "O"),
        "Equivalence": Equivalence({"A": "C", "C": "A"}, {"B": "B"}, {0: 1, 1: 0}),
        "Word2d": Word2d(((0, 1), (2, 3))),
        "Morphism2d": swap,
        "MarkerSet": MarkerSet(frozenset({0, 3}), 2),
        "MarkerReport": MarkerReport(((0, 1),), ((1, 0), (2, 3))),
        "Derivation": Derivation(T, MarkerSet(frozenset({1}), 1), 1, T, swap, (0,), ((0, 1),)),
        "NamedArtifact": NamedArtifact("T", "tileset", T, "two sample tiles"),
        "StoneGeometry": StoneGeometry(
            (GoldenNumber(1, 0), GoldenNumber(0, 1)), (GoldenNumber(1, 1), GoldenNumber(2, 0))
        ),
        "GoldenNumber": GoldenNumber(2, -3),
        "GoldenRational": GoldenRational(GoldenNumber(2, 4), -6),
        "IntMatrix": IntMatrix([[1, 2, 3], [4, 5, 6]]),
        "IntPolynomial": IntPolynomial([-1, -1, 1, 0]),
        "Step": Step("claim", {"k": [1, 2]}, "pass"),
        "Certificate": Certificate(
            "U", [Step("claim", {"k": [1, 2]}, "pass")], self_similar=True, started="t0"
        ),
    }
