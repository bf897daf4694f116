"""The end-to-end certification pipeline.

Certifying a tile set T runs two marker-derivation steps, checks that the
twice-derived set is a color relabeling of T, composes the three morphisms
into a self-map, and verifies that self-map is primitive, expansive and
letter-recognizable, and that its 2x2 factor language exhausts the 2x2
patterns the solver admits.  Conclusions are only ever claimed from verified
premises; a failing step leaves the remaining flags false rather than
guessing.

A planned step (direction, radius) takes the first verified marker
candidate there.  The auto plan tries e2 then e1 with radii 1..3 and takes
the first candidate whose regrouping is stable: the singles and fusions read
off the radius r+1 dominoes equal those of the derivation at radius r.
Stability compares only those two tuples, so no second derivation is built.

Stability is decided by that rule, but only once the patch below has been
harvested.  A provisional chain first takes each step's first candidate, and
yields the equivalence, omega and its primitivity.  One inflation patch of
omega is grown and harvested into T's memo; each level passes through the
once-derived set and is harvested into that set's memo too, so the patch
witnesses the dominoes both stability checks ask about.  When step 1 is
auto, the patch grows until it witnesses omega's dominoes along step 1's
axis at step 1's radius + 1, the radius its stability check asks; by unique
composition every domino of the language occurs in some omega^k(a), and it
lies in one of omega's 2x2 factors, so the dominoes are read off those.  A
fixed plan asks no stability check, and its patch grows for the 2x2 factors
at radius 1.  Then the rule runs unchanged, so the certificate is the
rule's.  Both passes read one memo, kept for the run, of the candidates
found and the derivations built, keyed by source set, markers and radius:
the rule derives again nothing the chain derived, and where it takes the
chain's derivations it keeps the chain's omega.  A harvested patch is
checked valid first, so it records only true facts whichever chain grew it.

The 2x2 step compares the factors of the self-map omega with the patterns
that admit a radius-r surrounding.  Since omega is primitive, every factor
occurs in omega^k(a) once k is large, so before each radius the inflation
patch of omega is grown further and harvested: a valid patch witnesses the
surroundings of the factors inside it, with no pinned search each.

One stop rule grows the patch for every caller: until every pattern asked
about is witnessed at the radius asked, or until the patch has more cells
than the pinned rectangles it would replace, n1*n2*(1+2r)^2 cells for each
n1 x n2 pattern still missing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from . import __version__
from .core import WangTileSet, check_equivalence
from .derivation import Derivation, derive, find_marker_candidates, regroup
from .morphism import (
    Morphism2d,
    Word2d,
    apply,
    compose,
    factors_2x2,
    incidence_matrix,
    subwords,
)
from .solver import harvest, known_to_survive, patterns_with_surrounding
from .spectral import is_primitive

AUTO_DIRECTIONS = (2, 1)
AUTO_MAX_RADIUS = 3

Plan = Union[str, Sequence[tuple[int, int]]]


@dataclass
class Step:
    claim: str
    evidence: dict
    status: str  # "pass" | "fail"

    def as_dict(self) -> dict:
        return {"claim": self.claim, "evidence": self.evidence, "status": self.status}


@dataclass
class Certificate:
    subject: str
    steps: list[Step] = field(default_factory=list)
    self_similar: bool = False
    aperiodic: bool = False
    minimal: bool = False
    started: str = ""
    finished: str = ""

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
    return datetime.now(timezone.utc).isoformat()


def _derivations(
    T: WangTileSet, spec: Optional[tuple[int, int]], memo: dict
) -> Iterator[Derivation]:
    """The derivation of each marker candidate the plan entry (None: auto) may
    take, lazily and in the rule's order.  The memo keeps each candidate list
    and each derivation for the rest of the run; a derive() that raised is
    asked again and raises again."""
    if spec is None:
        tries = [(e, r) for e in AUTO_DIRECTIONS for r in range(1, AUTO_MAX_RADIUS + 1)]
    else:
        tries = [spec]
    for direction, radius in tries:
        if (T, direction, radius) not in memo:
            memo[T, direction, radius] = find_marker_candidates(T, direction, radius)
        for markers in memo[T, direction, radius]:
            # keyed by the radius too: one marker set can be a candidate at two
            if (T, markers, radius) not in memo:
                memo[T, markers, radius] = derive(T, markers, radius)
            yield memo[T, markers, radius]


def _stable(d: Derivation, spec: Optional[tuple[int, int]]) -> bool:
    """Does a planned step take the derivation?  Auto asks for a stable regrouping."""
    if spec is not None:
        return True
    return regroup(d.source, d.markers, d.radius + 1) == (d.singles, d.fusions)


class _SelfMap:
    """The equivalence of T with the twice-derived set and, when there is one,
    omega = outer o inner: outer is step 1's morphism and inner is step 2's
    after the relabeling, a map from T to the once-derived set.  ``patch`` is
    the inflation patch of omega grown so far."""

    def __init__(self, T: WangTileSet, derivations: list[Derivation]):
        self.derivations = derivations
        d1, d2 = derivations
        self.inner: Optional[Morphism2d] = None
        self.omega: Optional[Morphism2d] = None
        self.exponent: Optional[int] = None
        self.patch = Word2d.letter(0)
        self.eq = check_equivalence(T, d2.derived)
        if self.eq is None:
            return
        relabeling = Morphism2d(
            T, d2.derived, tuple(Word2d.letter(self.eq.tile_map[i]) for i in range(len(T)))
        )
        self.inner = compose(d2.morphism, relabeling)
        self.omega = compose(d1.morphism, self.inner)
        self.exponent = is_primitive(incidence_matrix(self.omega))

    @property
    def expansive(self) -> bool:
        return self.exponent is not None and any(im.shape == (2, 2) for im in self.omega.images)

    @cached_property
    def factors(self) -> set[Word2d]:
        return factors_2x2(self.omega)


def _witness(
    T: WangTileSet, sm: _SelfMap, patterns: set[Word2d], radius: int, between: bool = False
) -> None:
    """Grow the inflation patch by omega, harvesting each level, until every
    pattern is known to survive at the radius, or the patch has more cells
    than the pinned rectangles of the patterns still unwitnessed.  An n1 x n2
    pattern's pinned rectangle at radius r has n1*n2*(1+2r)^2 cells.

    The callers pass the patterns whose surroundings the rule asks next, at
    the radius it asks them: the 2x2 factors at the 2x2 step's radius, and
    before the auto plan's stability checks, omega's dominoes along step 1's
    axis at step 1's radius + 1, the radius regroup asks.  Those dominoes
    are read off the 2x2 factors: each holds two dominoes along each axis,
    and every domino of the language lies in some 2x2 factor.

    With ``between``, each level P' = outer(Q) passes through Q = inner(P), a
    patch over the once-derived set, harvested into that set's memo for the
    second step's stability check.  factors_2x2 has applied omega to every
    2x2 factor, so omega applies to the patch; omega is primitive, so the
    patch grows and the loop ends."""
    outer = sm.derivations[0].morphism
    scale = (1 + 2 * radius) ** 2
    while True:
        pinned = sum(
            n1 * n2 * scale
            for n1, n2 in (p.shape for p in patterns if not known_to_survive(T, p, radius))
        )
        width, height = sm.patch.shape
        if not pinned or width * height > pinned:
            return
        if between:
            q = apply(sm.inner, sm.patch)
            harvest(outer.domain, q)
            sm.patch = apply(outer, q)
        else:
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
    _run(T, steps, cert)
    cert.finished = _now()
    return cert


def _run(T: WangTileSet, steps: list[Optional[tuple[int, int]]], cert: Certificate) -> None:
    """Append each step to the certificate, stopping at the first that fails.

    The provisional chain takes each step's first candidate.  When it reaches
    an expansive omega, its inflation patch is grown and harvested before any
    stability check is asked, so the patch answers them.  Then each step is
    decided by the rule, in order; both passes read one memo of candidates
    and derivations, so the rule derives only what the chain did not.
    """
    memo: dict = {}
    provisional: Optional[_SelfMap] = None
    chain: list[Derivation] = []
    try:
        for spec in steps:
            d = next(_derivations(chain[-1].derived if chain else T, spec, memo), None)
            if d is None or d.degenerate:
                break
            chain.append(d)
        else:
            provisional = _SelfMap(T, chain)
            if provisional.expansive:
                patterns, radius = provisional.factors, 1
                if steps[0] is None:  # regroup asks about step 1's dominoes at r+1
                    d1 = chain[0]
                    shape = (2, 1) if d1.markers.direction == 1 else (1, 2)
                    patterns = {d for f in patterns for d in subwords(f, shape)}
                    radius = d1.radius + 1
                _witness(T, provisional, patterns, radius, between=None in steps)
    except ValueError:  # the rule meets the same error, or a morphism that does not assemble
        provisional = None

    derivations: list[Derivation] = []
    for k, spec in enumerate(steps, start=1):
        current = derivations[-1].derived if derivations else T
        evidence: dict = {"plan": "auto" if spec is None else list(spec)}
        try:
            d = next((d for d in _derivations(current, spec, memo) if _stable(d, spec)), None)
        except ValueError as e:  # e.g. colliding derived tiles on degenerate input
            d = None
            evidence["error"] = str(e)
        if d is None:
            cert.steps.append(
                Step(
                    claim=f"derivation step {k}: a verified marker set exists",
                    evidence=evidence,
                    status="fail",
                )
            )
            return
        # derive() refuses a morphism that fails the letter-level criterion,
        # so a derivation that got here satisfies it.
        cert.steps.append(
            Step(
                claim=f"derivation step {k}: markers verified and morphism recognizable",
                evidence={
                    "direction": d.markers.direction,
                    "radius": d.radius,
                    "markers": sorted(d.markers.tile_indices),
                    "derivedSize": len(d.derived),
                    "singles": list(d.singles),
                    "fusions": [list(p) for p in d.fusions],
                    "recognizabilityCriterion": True,
                },
                status="fail" if d.degenerate else "pass",
            )
        )
        if d.degenerate:
            return
        derivations.append(d)

    sm = provisional
    if sm is None or sm.derivations != derivations:
        sm = _SelfMap(T, derivations)
    eq = sm.eq
    cert.steps.append(
        Step(
            claim="twice-derived tile set is a color relabeling of the original",
            evidence=(
                {
                    "verticalBijection": eq.vertical,
                    "horizontalBijection": eq.horizontal,
                    "tileBijection": {str(k): v for k, v in sorted(eq.tile_map.items())},
                }
                if eq
                else {"equivalence": None}
            ),
            status="pass" if eq else "fail",
        )
    )
    if eq is None:
        return

    omega = sm.omega
    cert.steps.append(
        Step(
            claim="composed self-map is primitive and expansive",
            evidence={
                "primitivityExponent": sm.exponent,
                "imageShapes": sorted({f"{a}x{b}" for a, b in (im.shape for im in omega.images)}),
            },
            status="pass" if sm.expansive else "fail",
        )
    )
    if not sm.expansive:
        return

    cert.self_similar = True
    cert.aperiodic = True  # expansive + recognizable self-map onto-up-to-shift

    # The admissible pattern set over-approximates the shift language at any
    # radius, so equality at any radius licenses the conclusion; escalate a
    # little before giving up.
    factors = sm.factors
    minimal = False
    evidence: dict = {"factorCount": len(factors)}
    for r in range(1, AUTO_MAX_RADIUS + 1):
        _witness(T, sm, factors, r)
        admitted = set(patterns_with_surrounding(T, (2, 2), r))
        evidence["admittedCount"] = len(admitted)
        evidence["radius"] = r
        if not factors <= admitted:
            break  # the factor language escaped the admissible set: give up
        if factors == admitted:
            minimal = True
            break
    cert.steps.append(
        Step(
            claim="2x2 factors of the self-map exhaust the admissible 2x2 patterns",
            evidence=evidence,
            status="pass" if minimal else "fail",
        )
    )
    cert.minimal = minimal
