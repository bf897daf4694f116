"""The three benchmark workloads: seeded inputs, timed calls, untimed checks.

Each workload builds its operations from a seeded random.Random.  An
operation's ``run`` makes only the calls into wangtiles that are timed; its
``check`` judges the result with the oracles in ``oracles.py``, the frozen
reference data in ``wangtiles.suite`` and the golden render hashes.  Program
functions are looked up on their modules at call time, so a traced run sees
them through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import oracles

LAYERS = ("core", "solver", "morphism", "derivation", "spectral", "render", "certify", "corpus", "suite")
GOLDEN_RENDERS = Path(__file__).with_name("golden_renders.json")


class ProgramMissing(RuntimeError):
    """The checkout holds no wangtiles sources to benchmark."""


class DeadlineExceeded(Exception):
    """Raised by the interval timer when an operation outlives its deadline."""


def load_program(src: Path) -> SimpleNamespace:
    """Import wangtiles from ``src`` (never from an installed copy)."""
    if not (src / "wangtiles" / "__init__.py").is_file():
        raise ProgramMissing(f"no wangtiles package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("wangtiles")
    if Path(pkg.__file__).resolve().parent != (src / "wangtiles").resolve():
        raise ProgramMissing(f"imported wangtiles from {pkg.__file__}, not from {src}")
    # importlib, because the package rebinds names such as ``certify`` and
    # ``render`` to functions that shadow the submodules.
    return SimpleNamespace(**{name: importlib.import_module(f"wangtiles.{name}") for name in LAYERS})


def relabel(prog, T, rng: random.Random):
    """Permute the single-letter colors within each color family and shuffle
    the tile order.  Returns the new set and new_index, where tile i of T
    becomes tile new_index[i]."""
    vert = sorted({c for t in T for c in (t.left, t.right) if len(c) == 1})
    hor = sorted({c for t in T for c in (t.top, t.bottom) if len(c) == 1})
    pv = dict(zip(vert, rng.sample(vert, len(vert))))
    ph = dict(zip(hor, rng.sample(hor, len(hor))))
    order = list(range(len(T)))
    rng.shuffle(order)
    tiles = []
    new_index = [0] * len(T)
    for k, i in enumerate(order):
        t = T[i]
        tiles.append(prog.core.WangTile(
            pv.get(t.right, t.right), ph.get(t.top, t.top), pv.get(t.left, t.left), ph.get(t.bottom, t.bottom)
        ))
        new_index[i] = k
    return prog.core.WangTileSet(tiles), new_index


class Deck:
    """Cycles through items in a freshly shuffled order, so every run of
    enough operations draws each item equally often."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = self.items[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]  # the timed calls into wangtiles
    check: Callable[[Any], bool]  # untimed: is the result correct?


class Workload:
    name = ""
    deadline_s: Optional[float] = None
    expected_spans: tuple[str, ...] = ()  # traced spans that must fire on this workload

    def make_op(self) -> Op:
        raise NotImplementedError


def certificate_ok(cert, factors: Optional[int]) -> bool:
    if not (cert.self_similar and cert.aperiodic and cert.minimal):
        return False
    if not cert.steps or any(step.status != "pass" for step in cert.steps):
        return False
    last = cert.steps[-1].evidence
    if last.get("factorCount") != last.get("admittedCount"):
        return False
    return factors is None or last["factorCount"] == factors


class CertifyWorkload(Workload):
    """One operation certifies a fresh relabeling of U (plan auto), then one
    of V (plan e1:1,e2:2)."""

    name = "certify"
    V_PLAN = [(1, 1), (2, 2)]
    expected_spans = (
        "certify.certify", "solver.solve_rectangle", "solver.exists", "solver.enumerate",
        "solver.dominoes_with_surrounding", "solver.patterns_with_surrounding",
        "derivation.verify_markers", "derivation.find_marker_candidates", "derivation.derive",
        "core.check_equivalence", "morphism.compose", "morphism.factors_2x2", "morphism.apply",
        "spectral.is_primitive",
    )

    def __init__(self, prog, rng: random.Random, deadline_s: Optional[float]):
        self.prog, self.rng = prog, rng
        self.U = prog.corpus.builtin("U").payload
        self.V = prog.corpus.builtin("V").payload
        self.u_factors = len(prog.suite.FACTORS_2X2_U)

    def make_op(self) -> Op:
        ru, _ = relabel(self.prog, self.U, self.rng)
        rv, _ = relabel(self.prog, self.V, self.rng)
        certify = self.prog.certify

        def run():
            return certify.certify(ru, "U", "auto"), certify.certify(rv, "V", self.V_PLAN)

        def check(result) -> bool:
            cu, cv = result
            return certificate_ok(cu, self.u_factors) and certificate_ok(cv, None)

        return Op("certify U+V", run, check)


class TilingWorkload(Workload):
    """Direct solve_rectangle queries on fresh relabelings of U, each under
    the deadline.  Every round of ten operations holds one free square,
    four pinned windows, two centred dominoes and three counts."""

    name = "tiling"
    ROUND = ["free"] + ["pinned"] * 4 + ["domino"] * 2 + ["count"] * 3
    FREE_SIDES = range(10, 21)
    WINDOW_SIDES = range(8, 17)
    MAX_PINS = 6
    PATCH_LEVEL = 12
    COUNT_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2),
                    (2, 6), (6, 2), (3, 4), (4, 3), (4, 4)]
    expected_spans = ("solver.solve_rectangle", "solver.exists", "solver.count")

    def __init__(self, prog, rng: random.Random, deadline_s: Optional[float]):
        self.prog, self.rng, self.deadline_s = prog, rng, deadline_s
        self.U = prog.corpus.builtin("U").payload
        self.tiles = [t.as_tuple() for t in self.U]
        omega = prog.corpus.builtin("omega").payload
        self.patch = prog.morphism.iterate(omega, rng.randrange(len(self.U)), self.PATCH_LEVEL).columns
        self.sat_dominoes = set(prog.suite.DOMINOES_U_E2_R2)
        pairs = [(i, j) for i, u in enumerate(self.tiles) for j, v in enumerate(self.tiles) if u[1] == v[3]]
        self.kinds = Deck(self.ROUND, rng)
        self.sides = Deck(self.FREE_SIDES, rng)
        self.pairs = Deck(pairs, rng)
        self.shapes = Deck(self.COUNT_SHAPES, rng)
        self.widths = Deck(self.WINDOW_SIDES, rng)
        self.heights = Deck(self.WINDOW_SIDES, rng)
        self.pin_counts = Deck(range(1, self.MAX_PINS + 1), rng)
        self.counts: dict[tuple[int, int], int] = {}  # oracle counts; relabeling keeps them

    def make_op(self) -> Op:
        kind = self.kinds.draw()
        R, new = relabel(self.prog, self.U, self.rng)
        solver = self.prog.solver
        if kind == "free":
            side = self.sides.draw()
            return Op(kind, lambda: solver.solve_rectangle(R, side, side, None, "exists"), lambda r: r is True)
        if kind == "pinned":
            w, h = self.widths.draw(), self.heights.draw()
            x0 = self.rng.randrange(len(self.patch) - w + 1)
            y0 = self.rng.randrange(len(self.patch[0]) - h + 1)
            window = [col[y0:y0 + h] for col in self.patch[x0:x0 + w]]
            sat = oracles.pattern_is_valid(self.tiles, window)  # then the window itself is a witness
            cells = self.rng.sample([(x, y) for x in range(w) for y in range(h)], self.pin_counts.draw())
            pins = {(x, y): new[window[x][y]] for x, y in cells}
            return Op(kind, lambda: solver.solve_rectangle(R, w, h, pins, "exists"), lambda r: sat and r is True)
        if kind == "domino":
            i, j = self.pairs.draw()
            pins = {(2, 4): new[i], (2, 5): new[j]}
            sat = (i, j) in self.sat_dominoes
            return Op(kind, lambda: solver.solve_rectangle(R, 5, 10, pins, "exists"), lambda r: r is sat)
        shape = self.shapes.draw()
        if shape not in self.counts:
            self.counts[shape] = oracles.count_tilings(self.tiles, *shape)
        expected = self.counts[shape]
        return Op(kind, lambda: solver.solve_rectangle(R, shape[0], shape[1], None, "count"),
                  lambda r: type(r) is int and r == expected)


def render_all(prog, U, geometry, w, level: int) -> tuple[str, str, str, str]:
    """The four renderings of an inflation patch that the inflate workload times and hashes."""
    return (
        prog.render.render_text(U, w),
        prog.render.render_svg(U, w),
        prog.render.render_tikz(U, w),
        prog.render.stone_render(geometry, w, level),
    )


def render_hashes(texts) -> list[str]:
    return [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]


class InflateWorkload(Workload):
    """iterate(omega, a, n) and its four renderings, then the exact spectral
    calls on a seeded relabeling P M^k P^T of omega's incidence matrix."""

    name = "inflate"
    LETTERS = range(19)
    LEVELS = range(6, 11)
    POWERS = range(1, 6)  # phi^(2k) stays within recognize_golden's coefficient range
    expected_spans = (
        "morphism.iterate", "morphism.apply", "render.render_text", "render.render_svg",
        "render.render_tikz", "render.stone_render", "spectral.char_poly",
        "spectral.exact_perron_frequencies", "spectral.is_primitive",
    )

    def __init__(self, prog, rng: random.Random, deadline_s: Optional[float]):
        self.prog, self.rng = prog, rng
        self.U = prog.corpus.builtin("U").payload
        self.omega = prog.corpus.builtin("omega").payload
        self.geometry = prog.render.stone_geometry_u()
        self.golden = json.loads(GOLDEN_RENDERS.read_text())
        n = len(self.U)
        self.M = oracles.incidence_from_table(prog.suite.OMEGA_TABLE, n)
        self.exponent = oracles.primitivity_exponent(self.M)
        powers = set(self.POWERS) | set(self.LEVELS)
        self.powers = {k: oracles.mat_pow(self.M, k) for k in powers}
        spectral = prog.spectral
        denominator = spectral.GoldenRational.of(spectral.PHI ** 8 * spectral.GoldenNumber(2, 0))
        self.frequencies = [spectral.GoldenRational.of(v) / denominator for v in prog.suite.right_eigenvector()]
        self.levels = Deck(self.LEVELS, rng)
        self.letters = {level: Deck(self.LETTERS, rng) for level in self.LEVELS}
        self.ks = Deck(self.POWERS, rng)

    def make_op(self) -> Op:
        level = self.levels.draw()
        a = self.letters[level].draw()
        k = self.ks.draw()
        n = len(self.M)
        perm = self.rng.sample(range(n), n)  # letter i becomes perm[i]
        Mk = self.powers[k]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[perm[i]][perm[j]] = Mk[i][j]
        A = self.prog.spectral.IntMatrix(rows)
        p = self.prog

        def run():
            w = p.morphism.iterate(self.omega, a, level)
            texts = render_all(p, self.U, self.geometry, w, level)
            poly = p.spectral.char_poly(A)
            lam, freqs = p.spectral.exact_perron_frequencies(A)
            return w, texts, poly, lam, freqs, p.spectral.is_primitive(A)

        def check(result) -> bool:
            w, texts, poly, lam, freqs, exponent = result
            counts = Counter(x for col in w.columns for x in col)
            if [counts.get(i, 0) for i in range(n)] != [row[a] for row in self.powers[level]]:
                return False
            if render_hashes(texts) != self.golden[f"{a},{level}"]:
                return False
            root = oracles.phi_power(2 * k)
            if (lam.a, lam.b) != root:
                return False
            if freqs != [self.frequencies[perm.index(i)] for i in range(n)]:
                return False
            c = list(poly.coeffs)
            if len(c) != n + 1 or c[n] != 1 or c[n - 1] != -sum(rows[i][i] for i in range(n)):
                return False
            if oracles.golden_poly_eval(c, root) != (0, 0):
                return False
            return exponent == math.ceil(self.exponent / k)

        return Op(f"level {level}", run, check)


WORKLOADS = {w.name: w for w in (CertifyWorkload, TilingWorkload, InflateWorkload)}
