"""Two-dimensional words and block morphisms.

A Word2d stores a rectangle of tile indices as a tuple of columns, each
column running bottom to top.  A Morphism2d maps every letter of a domain
tile set to a Word2d over a codomain tile set; applying it to a word glues
the images into a block array, which is only defined when image heights
agree along each input row and image widths agree along each input column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .core import WangTileSet
from .spectral import GoldenRational, IntMatrix, exact_perron_frequencies


class ShapeError(ValueError):
    """Concatenation of words whose shapes do not fit."""


class DomainError(ValueError):
    """A word outside the natural domain of a morphism."""


class CompositionError(ValueError):
    """Composition failed while assembling the image of a letter."""


def _is_int_table(rows: object) -> bool:
    """Is this a list of lists of ints, the shape of a pattern or image in JSON?"""
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(type(c) is int for c in r) for r in rows
    )


@dataclass(frozen=True, order=True)
class Word2d:
    """Rectangular word of letters; columns listed left to right, bottom to top."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.columns or not self.columns[0]:
            raise ValueError("words must have shape at least (1, 1)")
        h = len(self.columns[0])
        if any(len(c) != h for c in self.columns):
            raise ValueError("all columns must have equal height")

    @staticmethod
    def letter(a: int) -> "Word2d":
        return Word2d(((a,),))

    @staticmethod
    def from_columns(columns: Iterable[Iterable[int]]) -> "Word2d":
        return Word2d(tuple(tuple(c) for c in columns))

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "Word2d":
        """Rows in Cartesian display order: first row is the top one."""
        if not _is_int_table(rows):
            raise ValueError("a pattern must be a list of rows of integer tile indices")
        height = len(rows)
        width = len(rows[0]) if height else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return Word2d(
            tuple(tuple(rows[height - 1 - y][x] for y in range(height)) for x in range(width))
        )

    def to_rows(self) -> list[list[int]]:
        """Cartesian display order (bottom row last)."""
        n1, n2 = self.shape
        return [[self.columns[x][y] for x in range(n1)] for y in range(n2 - 1, -1, -1)]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.columns), len(self.columns[0]))

    def cell(self, x: int, y: int) -> int:
        return self.columns[x][y]

    def letters(self) -> set[int]:
        return {a for col in self.columns for a in col}

    def __repr__(self) -> str:
        return f"Word2d({[list(c) for c in self.columns]})"


def concat(u: Word2d, v: Word2d, direction: int) -> Word2d:
    """Concatenate along axis 1 (v to the east) or 2 (v to the north)."""
    (un1, un2), (vn1, vn2) = u.shape, v.shape
    if direction == 1:
        if un2 != vn2:
            raise ShapeError(f"heights differ: {un2} vs {vn2}")
        return Word2d(u.columns + v.columns)
    if direction == 2:
        if un1 != vn1:
            raise ShapeError(f"widths differ: {un1} vs {vn1}")
        return Word2d(tuple(cu + cv for cu, cv in zip(u.columns, v.columns)))
    raise ValueError(f"direction must be 1 or 2, got {direction}")


def subwords(w: Word2d, shape: tuple[int, int]) -> set[Word2d]:
    """All factors of the given shape, deduplicated."""
    a, b = shape
    n1, n2 = w.shape
    if a < 1 or b < 1:
        raise ValueError("subword shape components must be >= 1")
    out: set[Word2d] = set()
    for x in range(n1 - a + 1):
        for y in range(n2 - b + 1):
            out.add(Word2d(tuple(w.columns[x + i][y : y + b] for i in range(a))))
    return out


@dataclass(frozen=True)
class Morphism2d:
    """Letter-to-block map between two tile sets."""

    domain: WangTileSet
    codomain: WangTileSet
    images: tuple[Word2d, ...]

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise ValueError(
                f"need one image per domain letter: {len(self.images)} != {len(self.domain)}"
            )
        bad = [a for im in self.images for a in im.letters() if a >= len(self.codomain) or a < 0]
        if bad:
            raise ValueError(f"image letter {bad[0]} outside codomain")

    def to_json_table(self) -> dict[str, list[list[int]]]:
        """The file format: domain index -> list of columns, bottom to top."""
        return {str(a): [list(c) for c in im.columns] for a, im in enumerate(self.images)}

    @staticmethod
    def from_json_table(
        table: dict[str, list[list[int]]], domain: WangTileSet, codomain: WangTileSet
    ) -> "Morphism2d":
        if not isinstance(table, dict):
            raise ValueError("a morphism table must map domain letters to images")
        images = []
        for a in range(len(domain)):
            key = str(a)
            if key not in table:
                raise ValueError(f"missing image for domain letter {a}")
            image = table[key]
            if not _is_int_table(image):
                raise ValueError(f"image of domain letter {a} is not a list of integer columns")
            images.append(Word2d.from_columns(image))
        return Morphism2d(domain, codomain, tuple(images))


def apply(m: Morphism2d, w: Word2d) -> Word2d:
    """Apply a morphism to a word by block assembly.

    Raises DomainError naming the first offending cell pair when the images
    cannot be assembled (the word is outside the morphism's natural domain).
    """
    n1, n2 = w.shape
    images = [[m.images[w.cell(x, y)] for y in range(n2)] for x in range(n1)]
    heights = [images[0][y].shape[1] for y in range(n2)]
    widths = [images[x][0].shape[0] for x in range(n1)]
    for y in range(n2):
        for x in range(1, n1):
            if images[x][y].shape[1] != heights[y]:
                raise DomainError(
                    f"image heights differ along row {y}: cells (0,{y}) and ({x},{y})"
                )
    for x in range(n1):
        for y in range(1, n2):
            if images[x][y].shape[0] != widths[x]:
                raise DomainError(
                    f"image widths differ along column {x}: cells ({x},0) and ({x},{y})"
                )
    return Word2d(
        tuple(
            tuple(chain.from_iterable(im.columns[k] for im in images[x]))
            for x in range(n1)
            for k in range(widths[x])
        )
    )


def compose(outer: Morphism2d, inner: Morphism2d) -> Morphism2d:
    """(outer o inner)(a) = apply(outer, inner(a))."""
    if outer.domain != inner.codomain:
        raise CompositionError("domain of outer must equal codomain of inner")
    images = []
    for a in range(len(inner.domain)):
        try:
            images.append(apply(outer, inner.images[a]))
        except DomainError as e:
            raise CompositionError(f"image of letter {a} does not assemble: {e}") from e
    return Morphism2d(inner.domain, outer.codomain, tuple(images))


def incidence_matrix(m: Morphism2d) -> IntMatrix:
    """Entry (i, j) counts occurrences of codomain letter i in the image of j."""
    ncod, ndom = len(m.codomain), len(m.domain)
    rows = [[0] * ndom for _ in range(ncod)]
    for j, im in enumerate(m.images):
        for col in im.columns:
            for a in col:
                rows[a][j] += 1
    return IntMatrix(rows)


def frequencies(m: Morphism2d) -> tuple[list[GoldenRational], list[float]]:
    """Letter frequencies of a primitive self-morphism, exact and decimal.

    The right Perron vector of the incidence matrix, scaled to sum exactly
    to 1 in Q(phi).  Refuses non-primitive morphisms.
    """
    _, exact = exact_perron_frequencies(incidence_matrix(m))
    return exact, [float(f) for f in exact]


# iterate() refuses a word of more cells than this before building any of it.
# 2**22 cells hold about 32 MB of cell references.  Every letter of omega
# passes at level 15 (at most 1597x1597 cells); from level 17 every letter
# is refused.
MAX_ITERATE_CELLS = 1 << 22


class IterateTooLarge(ValueError):
    """An iterate whose word would have more than MAX_ITERATE_CELLS cells."""


def _check_iterate_size(m: Morphism2d, letter: int, n: int) -> None:
    """Refuse, before building anything, an n-fold image over the cell limit.

    The bottom row of apply(m, w) is the bottom rows of the images of w's
    bottom-row letters side by side, and its left column is the left columns
    of the images of w's left-column letters stacked.  So the letter counts
    of each evolve by a fixed matrix read off the images, and the width and
    height are their sums.  Neither shrinks, so the first level over the
    limit decides; once the counts repeat at one shape, they cycle through
    that shape for good.
    """
    bottom = [[col[0] for col in im.columns] for im in m.images]
    left = [im.columns[0] for im in m.images]
    row: dict[int, int] = {letter: 1}
    column: dict[int, int] = {letter: 1}
    shape = (1, 1)
    seen: set = set()  # the counts met since the shape last grew
    for k in range(1, n + 1):
        row, column = _image_counts(row, bottom), _image_counts(column, left)
        grown = (sum(row.values()), sum(column.values()))
        if grown == shape:
            counts = (frozenset(row.items()), frozenset(column.items()))
            if counts in seen:
                return
            seen.add(counts)
            continue
        shape, seen = grown, set()
        if grown[0] * grown[1] > MAX_ITERATE_CELLS:
            raise IterateTooLarge(
                f"iteration step {k} would build a {grown[0]}x{grown[1]} word, over the"
                f" limit of {MAX_ITERATE_CELLS} cells"
            )


def _image_counts(counts: dict[int, int], edges: list) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, c in counts.items():
        for b in edges[a]:
            out[b] = out.get(b, 0) + c
    return out


def iterate(m: Morphism2d, letter: int, n: int) -> Word2d:
    """n-fold application starting from the 1x1 word on the letter.

    Once a word repeats without the shape growing in between, the words
    cycle, so whole periods are skipped; a fixed point is a period of one.
    Raises IterateTooLarge, before building anything, when the word would
    have more than MAX_ITERATE_CELLS cells.
    """
    if m.domain != m.codomain:
        raise ValueError("iteration requires domain == codomain")
    if not 0 <= letter < len(m.domain):
        raise ValueError(f"letter {letter} outside the domain 0..{len(m.domain) - 1}")
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    _check_iterate_size(m, letter, n)
    w = Word2d.letter(letter)
    seen: dict[Word2d, int] = {}  # the words since the shape last grew -> their order
    for k in range(1, n + 1):
        try:
            image = apply(m, w)
        except DomainError as e:
            raise DomainError(f"assembly failed at iteration step {k}: {e}") from e
        if image.shape != w.shape:
            seen = {}
        else:
            seen.setdefault(w, len(seen))
            if image in seen:  # image is step k, equal to the word seen[image]
                cycle = list(seen)[seen[image] :]
                return cycle[(n - k) % len(cycle)]
            seen[image] = len(seen)
        w = image
    return w


def check_prolongable(m: Morphism2d, letter: int, sign: tuple[int, int]) -> bool:
    """Does the letter sit in the corner of its own image selected by the sign?

    Corner position p has p_i = 0 where sign_i = +1 and p_i = n_i - 1 where
    sign_i = -1.
    """
    if sign[0] not in (1, -1) or sign[1] not in (1, -1):
        raise ValueError("sign components must be +1 or -1")
    w = m.images[letter]
    n1, n2 = w.shape
    x = 0 if sign[0] == 1 else n1 - 1
    y = 0 if sign[1] == 1 else n2 - 1
    return w.cell(x, y) == letter


def check_recognizability_criterion(m: Morphism2d, markers: set[int], direction: int) -> bool:
    """Letter-level sufficient condition for recognizability.

    True iff the restriction of m to letters is injective and every image is
    either a single non-marker letter, or a domino along the given axis whose
    far part is the unique marker.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    if len(set(m.images)) != len(m.images):
        return False
    for im in m.images:
        n1, n2 = im.shape
        if (n1, n2) == (1, 1):
            if im.cell(0, 0) in markers:
                return False
        elif (n1, n2) == ((2, 1) if direction == 1 else (1, 2)):
            first = im.cell(0, 0)
            second = im.cell(1, 0) if direction == 1 else im.cell(0, 1)
            if first in markers or second not in markers:
                return False
        else:
            return False
    return True


# Guards the factor closure against non-termination; it cannot trigger for an
# expansive primitive morphism on a finite alphabet.
CLOSURE_CAP = 10000


def factors_2x2(m: Morphism2d) -> set[Word2d]:
    """All 2x2 words in the language generated by iterating the morphism.

    Phase 1 iterates images of letters until either every image reaches both
    dimensions >= 2 or the images stop changing.  Phase 2 closes the
    collected 2x2 factor set under "apply then take 2x2 factors", which is a
    fixed point for expansive morphisms.  Both phases stop with RuntimeError
    after CLOSURE_CAP iterations.
    """
    if m.domain != m.codomain:
        raise ValueError("factor closure requires domain == codomain")
    n = len(m.domain)
    words = [Word2d.letter(a) for a in range(n)]
    collected: set[Word2d] = set()

    if all(im.shape[1] == 1 for im in m.images) or all(im.shape[0] == 1 for im in m.images):
        return collected  # growth confined to one axis: no 2x2 word ever occurs

    # Iterate until every letter's word either covers a 2x2 block or has
    # individually stopped changing (a fixed word never grows new factors).
    for _ in range(CLOSURE_CAP):
        new_words = [apply(m, w) for w in words]
        for w in new_words:
            if min(w.shape) >= 2:
                collected |= subwords(w, (2, 2))
        if all(min(w.shape) >= 2 or w == old for w, old in zip(new_words, words)):
            words = new_words
            break
        words = new_words
    else:
        raise RuntimeError(f"factor closure did not stabilize within {CLOSURE_CAP} iterations")

    frontier = set(collected)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > CLOSURE_CAP:
            raise RuntimeError(f"factor closure did not stabilize within {CLOSURE_CAP} rounds")
        fresh: set[Word2d] = set()
        for f in frontier:
            fresh |= subwords(apply(m, f), (2, 2))
        frontier = fresh - collected
        collected |= fresh
    return collected
