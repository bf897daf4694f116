"""Slow, memo-based iteration and factor closure, kept as references for tests.

These are the earlier library versions: iterate() remembers every word met
at one shape and skips whole periods once one repeats, and factors_2x2()
re-applies every letter's word in lockstep until each covers a 2x2 block or
stops changing.  Both can use memory without bound, so the tests run them
only on small inputs and under a cell guard.
"""

from __future__ import annotations

from wangtiles.morphism import DomainError, Morphism2d, Word2d, apply, subwords

CLOSURE_CAP = 10000


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
    """2x2 factor closure by lockstep iteration of every letter's word.

    Raises TooManyCells when a word over max_cells cells would be applied,
    and RuntimeError after CLOSURE_CAP rounds of either phase.
    """

    def guarded(w: Word2d) -> Word2d:
        if w.shape[0] * w.shape[1] > max_cells:
            raise TooManyCells(f"{w.shape[0]}x{w.shape[1]}")
        return apply(m, w)

    words = [Word2d.letter(a) for a in range(len(m.domain))]
    collected: set[Word2d] = set()
    if all(im.shape[1] == 1 for im in m.images) or all(im.shape[0] == 1 for im in m.images):
        return collected  # growth confined to one axis: no 2x2 word ever occurs
    for _ in range(CLOSURE_CAP):
        new_words = [guarded(w) for w in words]
        for w in new_words:
            if min(w.shape) >= 2:
                collected |= subwords(w, (2, 2))
        if all(min(w.shape) >= 2 or w == old for w, old in zip(new_words, words)):
            break
        words = new_words
    else:
        raise RuntimeError(f"factor closure did not stabilize within {CLOSURE_CAP} iterations")
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
