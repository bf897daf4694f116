"""Spans around the public functions of wangtiles, recorded from outside.

Consumer modules bind names with ``from .solver import solve_rectangle``, so
a function is wrapped in every loaded wangtiles module that holds it, not
only in the module that defines it.  Spans nest on one stack (the benchmark
is single-threaded): a span's self time is its duration minus the durations
of its direct child spans, and a recursive call adds to total time only at
its outermost level.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

# (layer module, function) pairs wrapped in a traced run.
SPANS = [
    ("solver", "solve_rectangle"),
    ("solver", "dominoes_with_surrounding"),
    ("solver", "patterns_with_surrounding"),
    ("derivation", "verify_markers"),
    ("derivation", "find_marker_candidates"),
    ("derivation", "derive"),
    ("core", "check_equivalence"),
    ("morphism", "compose"),
    ("morphism", "factors_2x2"),
    ("morphism", "apply"),
    ("morphism", "iterate"),
    ("spectral", "char_poly"),
    ("spectral", "exact_perron_frequencies"),
    ("spectral", "is_primitive"),
    ("render", "render_text"),
    ("render", "render_svg"),
    ("render", "render_tikz"),
    ("render", "stone_render"),
    ("certify", "certify"),
    ("corpus", "builtin"),
]

# solve_rectangle is also recorded under one span per query mode.
SOLVER_MODES = ("exists", "count", "enumerate")

SPAN_NAMES = [f"{layer}.{fn}" for layer, fn in SPANS] + [f"solver.{m}" for m in SOLVER_MODES]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    truthy: int = 0  # calls that returned a truthy value (SAT, accepted)
    errors: Counter = field(default_factory=Counter)  # exception type name -> count


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.domino_keys: set = set()
        self.iterate_cells = 0
        self.render_bytes = 0
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.domino_keys = set()
        self.iterate_cells = 0
        self.render_bytes = 0

    def install(self) -> None:
        """Wrap every span target wherever a loaded wangtiles module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wangtiles" or n.startswith("wangtiles.")]
        for layer, fn in SPANS:
            original = getattr(sys.modules[f"wangtiles.{layer}"], fn)
            wrapper = self._wrap(f"{layer}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _record(self, name: str, result) -> None:
        if name == "morphism.iterate":
            self.iterate_cells += result.shape[0] * result.shape[1]
        elif name.startswith("render."):
            self.render_bytes += len(result.encode())

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            names = [name]
            if name == "solver.solve_rectangle":
                mode = kwargs.get("mode", args[4] if len(args) > 4 else "exists")
                names.append(f"solver.{mode}")
            elif name == "solver.dominoes_with_surrounding":
                tracer.domino_keys.add(args[:3])
            stack = tracer._stack
            depth = len(stack)
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:  # counted below, then re-raised
                error = e
                raise
            finally:
                elapsed = perf_counter() - start
                # Truncate rather than pop: a deadline interrupt may have cut
                # an inner span's bookkeeping short and left its frame behind.
                del stack[depth:]
                if stack:
                    stack[-1][1] += elapsed
                for n in names:
                    s = tracer.stats[n]
                    s.calls += 1
                    s.self_s += elapsed - frame[1]
                    if outermost:
                        s.total_s += elapsed
                    if error is not None:
                        s.errors[type(error).__name__] += 1
            if result:
                for n in names:
                    tracer.stats[n].truthy += 1
            tracer._record(name, result)
            return result

        return traced


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, setup_builtin: SpanStats, overhead_s: float, ops: int) -> dict:
    """The per_layer metrics of BENCHMARK.json: defined on every workload."""
    st = tracer.stats
    out = {f"{name}.calls": (st[name].calls, "count") for name in SPAN_NAMES}
    out["corpus.builtin.calls"] = (setup_builtin.calls, "count")  # it fires only in set-up
    solve = st["solver.solve_rectangle"]
    markers = st["derivation.verify_markers"]
    out.update({
        "solver.solve_rectangle.sat_ratio": (ratio(solve.truthy, solve.calls), "ratio"),
        "solver.dominoes.distinct_keys": (len(tracer.domino_keys), "count"),
        "solver.deadline_misses": (solve.errors["DeadlineExceeded"], "count"),
        "derivation.verify_markers.accept_ratio": (ratio(markers.truthy, markers.calls), "ratio"),
        "render.bytes_out": (tracer.render_bytes, "bytes"),
        "corpus.builtin.total_s": (setup_builtin.total_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.ops": (ops, "count"),
    })
    return out


def report_lines(tracer: Tracer, setup_builtin: SpanStats) -> list[str]:
    """Every span that fired, with calls, total and self time; ratios with their base."""
    lines = []
    rows = [(name, tracer.stats[name]) for name in SPAN_NAMES] + [("corpus.builtin (setup)", setup_builtin)]
    for name, s in rows:
        if s.calls:
            extra = ""
            if s.errors:
                extra = "  errors " + ", ".join(f"{k} {v}" for k, v in sorted(s.errors.items()))
            lines.append(
                f"span {name:<36} calls {s.calls:>8}  total_s {s.total_s:12.6f}  self_s {s.self_s:12.6f}{extra}"
            )
    st = tracer.stats
    solve, markers, it = st["solver.solve_rectangle"], st["derivation.verify_markers"], st["morphism.iterate"]
    dom = st["solver.dominoes_with_surrounding"]
    if solve.calls:
        lines.append(f"solver.solve_rectangle.sat_ratio {ratio(solve.truthy, solve.calls):.4f} ({solve.truthy}/{solve.calls})")
    if dom.calls:
        lines.append(f"solver.dominoes.distinct_keys {len(tracer.domino_keys)} (over {dom.calls} calls)")
    if markers.calls:
        lines.append(
            f"derivation.verify_markers.accept_ratio {ratio(markers.truthy, markers.calls):.4f} ({markers.truthy}/{markers.calls})"
        )
    if it.calls:
        lines.append(f"morphism.iterate.cells_per_s {tracer.iterate_cells / it.total_s:.1f} ({tracer.iterate_cells} cells)")
    if tracer.render_bytes:
        lines.append(f"render.bytes_out {tracer.render_bytes}")
    return lines
