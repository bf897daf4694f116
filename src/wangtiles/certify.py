"""The end-to-end certification pipeline.

Certifying a tile set T runs two marker-derivation steps, checks that the
twice-derived set is a color relabeling of T, composes the three morphisms
into a self-map, and verifies that self-map is primitive, expansive and
letter-recognizable, and that its 2x2 factor language exhausts the 2x2
patterns the solver admits.  Conclusions are only ever claimed from verified
premises; a failing step leaves the remaining flags false rather than
guessing.

A planned step (direction, radius) takes the first verified marker
candidate there.  The auto plan searches step 1 along e2 then e1, and step 2
along the axis step 1 did not use, each with radii 1..3, and takes the first
chain of two derivations whose twice-derived set is a relabeling of T and
whose self-map is expansive: two steps along one axis never give a 2x2
image.  Any order is sound, since every derivation in the chain is verified
and the later steps check the chain as for a planned one.  When no chain
closes, the certificate reports the first chain tried, as far as it got.

The 2x2 step compares the factors of the self-map omega with the patterns
that admit a radius-r surrounding.  Since omega is primitive, every factor
occurs in omega^k(a) once k is large, so before each radius the inflation
patch of omega is grown further and harvested: a valid patch witnesses the
surroundings of the factors inside it, with no pinned search each.  The
patch grows until every factor is witnessed at the radius, or until it has
more cells than the pinned rectangles it would replace, 4*(1+2r)^2 cells
for each 2x2 factor still missing.
"""

from __future__ import annotations

import json
import time
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from . import __version__
from .core import Value, WangTileSet, check_equivalence
from .derivation import Derivation, derive, find_marker_candidates
from .morphism import (
    CompositionError,
    Morphism2d,
    Word2d,
    apply,
    compose,
    factors_2x2,
    incidence_matrix,
)
from .solver import harvest, known_to_survive, patterns_with_surrounding
from .spectral import is_primitive

AUTO_DIRECTIONS = (2, 1)
AUTO_MAX_RADIUS = 3

Plan = Union[str, Sequence[tuple[int, int]]]


class Step(Value):
    """One claim of a certificate with its evidence; status is "pass" or
    "fail".  Equal when all three fields are, and unhashable, since it is
    mutable."""

    __slots__ = _fields = ("claim", "evidence", "status")
    __hash__ = None  # type: ignore[assignment]

    def as_dict(self) -> dict:
        return {"claim": self.claim, "evidence": self.evidence, "status": self.status}


class Certificate(Value):
    """The steps of one certify() run and its conclusion; equal when all
    fields are, and unhashable, since it is mutable."""

    __slots__ = _fields = (
        "subject", "steps", "self_similar", "aperiodic", "minimal", "started", "finished"
    )

    def __init__(
        self,
        subject: str,
        steps: Optional[list[Step]] = None,
        self_similar: bool = False,
        aperiodic: bool = False,
        minimal: bool = False,
        started: str = "",
        finished: str = "",
    ):
        self.subject = subject
        self.steps = [] if steps is None else steps
        self.self_similar = self_similar
        self.aperiodic = aperiodic
        self.minimal = minimal
        self.started = started
        self.finished = finished

    __hash__ = None  # type: ignore[assignment]

    def all_verified(self) -> bool:
        return self.self_similar and self.aperiodic and self.minimal

    def to_json(self) -> str:
        doc = {
            "subject": self.subject,
            "steps": [s.as_dict() for s in self.steps],
            "conclusion": {
                "selfSimilar": self.self_similar,
                "aperiodic": self.aperiodic,
                "minimal": self.minimal,
            },
            "timestamps": {"started": self.started, "finished": self.finished},
            "toolVersion": __version__,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _now() -> str:
    """The current UTC time as datetime.now(timezone.utc).isoformat() writes
    it, YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00, without importing datetime."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def _derivations(
    T: WangTileSet, spec: Optional[tuple[int, int]], axes: Sequence[int]
) -> Iterator[Derivation]:
    """The derivation of each marker candidate a step may take, lazily and in
    order: a planned step (direction, radius) takes the first candidate there,
    an auto step (None) every candidate along the axes, radii 1..3."""
    if spec is None:
        tries = [(e, r) for e in axes for r in range(1, AUTO_MAX_RADIUS + 1)]
    else:
        tries = [spec]
    for direction, radius in tries:
        for markers in find_marker_candidates(T, direction, radius):
            yield derive(T, markers, radius)
            if spec is not None:
                return


class _SelfMap:
    """The equivalence of T with the twice-derived set and, when there is one,
    omega = step 1's morphism o step 2's morphism o the relabeling, with its
    primitivity exponent.  ``error`` says why the images did not assemble
    into omega; ``patch`` is the inflation patch of omega grown so far."""

    def __init__(self, T: WangTileSet, chain: list[Derivation]):
        d1, d2 = chain
        self.omega: Optional[Morphism2d] = None
        self.exponent: Optional[int] = None
        self.error: Optional[str] = None
        self.patch = Word2d.letter(0)
        self.eq = check_equivalence(T, d2.derived)
        if self.eq is None:
            return
        relabeling = Morphism2d(
            T, d2.derived, tuple(Word2d.letter(self.eq.tile_map[i]) for i in range(len(T)))
        )
        try:
            self.omega = compose(d1.morphism, compose(d2.morphism, relabeling))
        except CompositionError as e:
            self.error = str(e)
            return
        self.exponent = is_primitive(incidence_matrix(self.omega))

    @property
    def expansive(self) -> bool:
        return self.exponent is not None and any(im.shape == (2, 2) for im in self.omega.images)

    @cached_property
    def factors(self) -> set[Word2d]:
        return factors_2x2(self.omega)


def _search(
    T: WangTileSet, steps: list[Optional[tuple[int, int]]], chain: list[Derivation]
) -> Optional[_SelfMap]:
    """Try the chains of derivations the plan may take, in order, and fill
    ``chain`` with the first whose self-map is expansive; return that self-map.

    When none is, ``chain`` gets the first chain tried, as far as it got, and
    the result is its self-map, or None if it has fewer than two steps or a
    degenerate one.  A derive() that raises ends the search with ``chain``
    holding the steps before the one that raised.
    """
    first: Optional[tuple[list[Derivation], Optional[_SelfMap]]] = None
    for d1 in _derivations(T, steps[0], AUTO_DIRECTIONS):
        chain.append(d1)
        if not d1.degenerate:
            other = (3 - d1.markers.direction,)
            for d2 in _derivations(d1.derived, steps[1], other):
                chain.append(d2)
                sm = None if d2.degenerate else _SelfMap(T, chain)
                if sm is not None and sm.expansive:
                    return sm
                first = first or (chain[:], sm)
                chain.pop()
        first = first or (chain[:], None)
        chain.pop()
    if first is None:
        return None
    chain[:], sm = first
    return sm


def _witness(T: WangTileSet, sm: _SelfMap, patterns: set[Word2d], radius: int) -> None:
    """Grow the inflation patch by omega, harvesting each level, until every
    2x2 pattern is known to survive at the radius, or the patch has more cells
    than the pinned rectangles of the patterns still unwitnessed, 4*(1+2r)^2
    cells each.  factors_2x2 has applied omega to every 2x2 factor, so omega
    applies to the patch; omega is primitive, so the patch grows and the loop
    ends."""
    cells = 4 * (1 + 2 * radius) ** 2
    while True:
        missing = sum(not known_to_survive(T, p, radius) for p in patterns)
        width, height = sm.patch.shape
        if not missing or width * height > cells * missing:
            return
        sm.patch = apply(sm.omega, sm.patch)
        harvest(T, sm.patch)


def certify(T: WangTileSet, subject: str = "tileset", plan: Plan = "auto") -> Certificate:
    """Run the certification pipeline; never raises on well-formed input.

    A malformed plan raises ValueError before any work is done.
    """
    if plan == "auto":
        steps: list[Optional[tuple[int, int]]] = [None, None]
    else:
        steps = list(plan)  # type: ignore[arg-type]
        if len(steps) != 2:
            raise ValueError("a certification plan needs exactly two derivation steps")
        for entry in steps:
            if not (
                isinstance(entry, (tuple, list))
                and len(entry) == 2
                and all(type(v) is int for v in entry)
                and entry[0] in (1, 2)
                and entry[1] >= 0
            ):
                raise ValueError(
                    f"bad plan entry {entry!r}: expected (direction, radius) with"
                    " direction 1 or 2 and an integer radius >= 0"
                )
    cert = Certificate(subject=subject, started=_now())
    for claim, evidence, holds in _claims(T, steps, cert):
        cert.steps.append(Step(claim, evidence, "pass" if holds else "fail"))
        if not holds:
            break
    cert.finished = _now()
    return cert


def _claims(
    T: WangTileSet, steps: list[Optional[tuple[int, int]]], cert: Certificate
) -> Iterator[tuple[str, dict, bool]]:
    """Yield each claim of the certificate in order as (claim, evidence,
    holds), and set the conclusion flags of ``cert`` as the claims that
    license them hold.

    The consumer stops at the first claim that does not hold, so the code
    after a yield may assume that its claim held.
    """
    chain: list[Derivation] = []
    error = None
    try:
        sm = _search(T, steps, chain)
    except ValueError as e:  # e.g. colliding derived tiles on degenerate input
        sm, error = None, str(e)
    for k, spec in enumerate(steps, start=1):
        if k > len(chain):
            evidence: dict = {"plan": "auto" if spec is None else list(spec)}
            if error is not None:
                evidence["error"] = error
            yield f"derivation step {k}: a verified marker set exists", evidence, False
        d = chain[k - 1]
        # derive() refuses a morphism that fails the letter-level criterion,
        # so a derivation that got here satisfies it.
        yield (
            f"derivation step {k}: markers verified and morphism recognizable",
            {
                "direction": d.markers.direction,
                "radius": d.radius,
                "markers": sorted(d.markers.tile_indices),
                "derivedSize": len(d.derived),
                "singles": list(d.singles),
                "fusions": [list(p) for p in d.fusions],
                "recognizabilityCriterion": True,
            },
            not d.degenerate,
        )

    eq = sm.eq
    yield (
        "twice-derived tile set is a color relabeling of the original",
        (
            {
                "verticalBijection": eq.vertical,
                "horizontalBijection": eq.horizontal,
                "tileBijection": {str(k): v for k, v in sorted(eq.tile_map.items())},
            }
            if eq
            else {"equivalence": None}
        ),
        eq is not None,
    )

    if sm.omega is None:
        evidence = {"error": sm.error}
    else:
        shapes = {f"{a}x{b}" for a, b in (im.shape for im in sm.omega.images)}
        evidence = {"primitivityExponent": sm.exponent, "imageShapes": sorted(shapes)}
    yield "composed self-map is primitive and expansive", evidence, sm.expansive

    cert.self_similar = True
    cert.aperiodic = True  # expansive + recognizable self-map onto-up-to-shift

    # The admissible pattern set over-approximates the shift language at any
    # radius, so equality at any radius licenses the conclusion; escalate a
    # little before giving up.
    factors = sm.factors
    evidence = {"factorCount": len(factors)}
    for r in range(1, AUTO_MAX_RADIUS + 1):
        _witness(T, sm, factors, r)
        admitted = set(patterns_with_surrounding(T, (2, 2), r))
        evidence["admittedCount"] = len(admitted)
        evidence["radius"] = r
        if not factors <= admitted:
            break  # the factor language escaped the admissible set: give up
        if factors == admitted:
            cert.minimal = True
            break
    yield "2x2 factors of the self-map exhaust the admissible 2x2 patterns", evidence, cert.minimal
