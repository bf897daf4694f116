"""Slow block assembly, memo-based iteration and factor closure, kept as
references for tests, with the general factor extraction they use.

These are the earlier library versions: apply() reads every cell's image
shape, iterate() remembers every word met at one shape and skips whole
periods once one repeats, and factors_2x2() applies each letter's word
until it covers a 2x2 block or provably never will.  The last two can use
memory without bound, so the tests run them only on small inputs and under a
cell guard.
"""

from __future__ import annotations

from itertools import chain

from wangtiles.morphism import DomainError, Morphism2d, Word2d, apply

CLOSURE_CAP = 10000


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


def reference_apply(m: Morphism2d, w: Word2d) -> Word2d:
    """Block assembly with every cell's image shape read off the image."""
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


class TooManyCells(Exception):
    """A reference computation built a word over its cell guard."""


def reference_iterate(m: Morphism2d, letter: int, n: int) -> Word2d:
    """n-fold application, skipping whole periods once a word repeats at one shape."""
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


def reference_factors_2x2(m: Morphism2d, max_cells: int) -> set[Word2d]:
    """2x2 factor closure from each letter's first iterate with both sides >= 2.

    A word with a side of 1 is applied until both sides are >= 2 or until
    its letter set and its sides of 1 repeat: the next letter set is the
    letters of their images, and a side of 1 stays 1 exactly when every
    letter's image has that side 1, so from a repeat on the word stays
    narrow for good.  Raises TooManyCells when a word over max_cells cells
    would be applied, and RuntimeError after CLOSURE_CAP rounds of the
    closure.
    """

    def guarded(w: Word2d) -> Word2d:
        if w.shape[0] * w.shape[1] > max_cells:
            raise TooManyCells(f"{w.shape[0]}x{w.shape[1]}")
        return apply(m, w)

    collected: set[Word2d] = set()
    for a in range(len(m.domain)):
        w = Word2d.letter(a)
        seen: set[tuple[frozenset[int], bool, bool]] = set()
        while min(w.shape) < 2:
            state = (frozenset(chain.from_iterable(w.columns)), w.shape[0] == 1, w.shape[1] == 1)
            if state in seen:
                break
            seen.add(state)
            w = guarded(w)
        else:
            # Later iterates' factors come from the closure below.
            collected |= subwords(w, (2, 2))
    frontier = set(collected)
    for _ in range(CLOSURE_CAP):
        if not frontier:
            return collected
        fresh: set[Word2d] = set()
        for f in frontier:
            fresh |= subwords(guarded(f), (2, 2))
        frontier = fresh - collected
        collected |= fresh
    raise RuntimeError(f"factor closure did not stabilize within {CLOSURE_CAP} rounds")
