"""Two-dimensional words and block morphisms.

A Word2d stores a rectangle of tile indices as a tuple of columns, each
column running bottom to top.  A Morphism2d maps every letter of a domain
tile set to a Word2d over a codomain tile set; applying it to a word glues
the images into a block array, which is only defined when image heights
agree along each input row and image widths agree along each input column.
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from itertools import chain
from typing import Iterable, Iterator

from .core import Frozen, WangTileSet
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


@total_ordering
class Word2d(Frozen):
    """Rectangular word of letters; columns listed left to right, bottom to top.

    Equality, hashing and ordering go by the columns.
    """

    __slots__ = _fields = ("columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]):
        if not columns or not columns[0]:
            raise ValueError("words must have shape at least (1, 1)")
        h = len(columns[0])
        if any(len(c) != h for c in columns):
            raise ValueError("all columns must have equal height")
        object.__setattr__(self, "columns", columns)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.columns < other.columns

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
        return set().union(*self.columns)

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
    windows = {
        tuple(col[y : y + b] for col in w.columns[x : x + a])
        for x in range(n1 - a + 1)
        for y in range(n2 - b + 1)
    }
    return set(map(Word2d, windows))


class Morphism2d(Frozen):
    """Letter-to-block map between two tile sets.

    Equality and hashing go by (domain, codomain, images).  No __slots__:
    the cached image tables live in the instance __dict__.
    """

    _fields = ("domain", "codomain", "images")

    def __init__(self, domain: WangTileSet, codomain: WangTileSet, images: tuple[Word2d, ...]):
        if len(images) != len(domain):
            raise ValueError(
                f"need one image per domain letter: {len(images)} != {len(domain)}"
            )
        bad = [a for im in images for a in im.letters() if a >= len(codomain) or a < 0]
        if bad:
            raise ValueError(f"image letter {bad[0]} outside codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)

    @cached_property
    def image_tables(self) -> tuple[list[int], list[int], list[tuple[tuple[int, ...], ...]]]:
        """Letter by letter, the width, the height and the columns of its image."""
        columns = [im.columns for im in self.images]
        return [len(c) for c in columns], [len(c[0]) for c in columns], columns

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
    cannot be assembled (the word is outside the morphism's natural domain):
    the rows' heights are checked first, row by row, then the columns'
    widths, column by column.  Each distinct column of the word is checked
    and assembled once, through the per-letter image tables.
    """
    widths, heights, image_columns = m.image_tables
    columns = w.columns
    distinct = dict.fromkeys(columns)
    if len({tuple(map(heights.__getitem__, col)) for col in distinct}) > 1:
        y, x = next(
            (y, x)
            for y, a0 in enumerate(columns[0])
            for x in range(1, len(columns))
            if heights[columns[x][y]] != heights[a0]
        )
        raise DomainError(f"image heights differ along row {y}: cells (0,{y}) and ({x},{y})")
    for col in distinct:
        column_widths = list(map(widths.__getitem__, col))
        if column_widths.count(column_widths[0]) != len(col):
            x = columns.index(col)
            y = next(y for y, v in enumerate(column_widths) if v != column_widths[0])
            raise DomainError(f"image widths differ along column {x}: cells ({x},0) and ({x},{y})")
        # the k-th columns of the images up the column, stacked bottom to top
        distinct[col] = [
            tuple(chain.from_iterable(parts))
            for parts in zip(*map(image_columns.__getitem__, col))
        ]
    return Word2d(tuple(chain.from_iterable(map(distinct.__getitem__, columns))))


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


# _shapes() refuses a step that would bring the cells built, summed over the
# steps so far, past this, so iterate() and factors_2x2() refuse before they
# build anything.  2**22 cells hold about 32 MB of cell references.  Every
# letter of omega passes at level 15 (words of at most 1597x1597 cells, at
# most 4,126,646 cells built); at level 16 only letters 0 and 1 pass, and
# from level 17 none.  A word that grows by one cell a step is refused at its
# step 2,895: it stays small, but its work grows with the square of the steps.
MAX_ITERATE_CELLS = 1 << 22


class IterateTooLarge(ValueError):
    """An iterate whose steps would build more than MAX_ITERATE_CELLS cells in all."""


def _shapes(m: Morphism2d, letter: int) -> Iterator[tuple[int, int]]:
    """The shape of m^k(letter) for k = 1, 2, ..., predicted without building it.

    The bottom row of apply(m, w) is the bottom rows of the images of w's
    bottom-row letters side by side, and its left column is the left columns
    of the images of w's left-column letters stacked.  So the letter counts
    of each evolve by a fixed matrix, and the width and height, their sums,
    never shrink.  A step that keeps the width sends each bottom-row letter
    to the bottom of its 1-wide image, and a map on N letters brings each
    letter into its cycle within N steps; likewise for the height.  So a
    shape kept for N + 1 steps in a row is kept for good, and the generator
    stops there.  It raises IterateTooLarge instead of yielding a shape that
    would bring the cells of all the shapes yielded past MAX_ITERATE_CELLS.
    """
    bottom = [[col[0] for col in im.columns] for im in m.images]
    left = [im.columns[0] for im in m.images]
    row: dict[int, int] = {letter: 1}
    column: dict[int, int] = {letter: 1}
    shape, kept, built, k = (1, 1), 0, 0, 0
    while kept <= len(m.domain):
        row, column = _image_counts(row, bottom), _image_counts(column, left)
        grown = (sum(row.values()), sum(column.values()))
        kept = kept + 1 if grown == shape else 0
        shape, k = grown, k + 1
        built += shape[0] * shape[1]
        if built > MAX_ITERATE_CELLS:
            raise IterateTooLarge(
                f"iteration step {k} would bring the cells built to {built}, over the"
                f" limit of {MAX_ITERATE_CELLS}"
            )
        yield shape


def _image_counts(counts: dict[int, int], edges: list) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, c in counts.items():
        for b in edges[a]:
            out[b] = out.get(b, 0) + c
    return out


def _renaming(m: Morphism2d, j: int) -> list[int]:
    """sigma^j, sigma sending a letter to its 1x1 image; -1 where that is undefined."""
    sigma = [im.columns[0][0] if im.shape == (1, 1) else -1 for im in m.images]
    power = list(range(len(sigma)))
    while j:
        if j & 1:
            power = [-1 if b < 0 else sigma[b] for b in power]
        sigma = [-1 if b < 0 else sigma[b] for b in sigma]
        j >>= 1
    return power


def iterate(m: Morphism2d, letter: int, n: int) -> Word2d:
    """n-fold application starting from the 1x1 word on the letter.

    Raises IterateTooLarge, before building anything, when the steps built
    one by one would build more than MAX_ITERATE_CELLS cells in all.  The
    steps _shapes yields are built one by one; past them the shape is kept
    for good, and each step renames every cell by its letter's 1x1 image:
    the remaining steps are one renaming.  Where that meets a letter whose
    image is not 1x1, the steps go on one by one, and apply raises
    DomainError within N of them (N letters).
    """
    if m.domain != m.codomain:
        raise ValueError("iteration requires domain == codomain")
    if not 0 <= letter < len(m.domain):
        raise ValueError(f"letter {letter} outside the domain 0..{len(m.domain) - 1}")
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    growing = sum(1 for _ in zip(range(n), _shapes(m, letter)))
    w = Word2d.letter(letter)
    for k in range(1, n + 1):
        if k > growing:
            table = _renaming(m, n - k + 1)
            columns = tuple(tuple(table[a] for a in col) for col in w.columns)
            if all(a >= 0 for col in columns for a in col):
                return Word2d(columns)
        try:
            w = apply(m, w)
        except DomainError as e:
            raise DomainError(f"assembly failed at iteration step {k}: {e}") from e
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


def factors_2x2(m: Morphism2d) -> set[Word2d]:
    """All 2x2 words in the language generated by iterating the morphism.

    Phase 1 finds each letter's seed, its first iterate with both sides at
    least 2.  A side still 1 after N steps (N letters) stays 1 for good, so
    the shapes are looked at for at most N steps, and a seed whose steps
    would build more than MAX_ITERATE_CELLS cells in all is refused with
    IterateTooLarge before any of them is built.
    Phase 2 closes the seeds' 2x2 factors under "apply, then take the 2x2
    factors".  Every 2x2 window of m(w) lies in m(f) for some 2x2 factor f
    of w, so this gives the factors of every later iterate too, and it ends
    because there are finitely many 2x2 words.
    """
    if m.domain != m.codomain:
        raise ValueError("factor closure requires domain == codomain")
    collected: set[Word2d] = set()
    for a in range(len(m.domain)):
        for k, shape in zip(range(1, len(m.domain) + 1), _shapes(m, a)):
            if min(shape) >= 2:
                w = Word2d.letter(a)
                for _ in range(k):
                    w = apply(m, w)
                collected |= subwords(w, (2, 2))
                break

    frontier = set(collected)
    while frontier:
        fresh: set[Word2d] = set()
        for f in frontier:
            fresh |= subwords(apply(m, f), (2, 2))
        frontier = fresh - collected
        collected |= fresh
    return collected
