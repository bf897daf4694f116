"""The wangtiles benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --tiling-deadline-ms 250 --workload certify --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  The report goes to standard output, ending with one JSON line:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from tracing import SpanStats, Tracer, layer_metrics, report_lines
from workloads import WORKLOADS, DeadlineExceeded, Op, ProgramMissing, load_program

SETUP_SAMPLES = 30  # fresh interpreters per run; setup_s is their median

# The host's core speed drifts by about 20 % over tens of seconds.  A run
# re-times fixed kernels for PROBE_SHARE of its operation time and reports
# every time at the speed where those kernels take their reference time.
PROBE_SHARE = 0.01

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wangtiles
from wangtiles.corpus import BUILTIN_NAMES, builtin
for name in BUILTIN_NAMES:
    builtin(name)
print(time.perf_counter() - start, wangtiles.__file__)
"""


def measure_setup(samples: int) -> list[float]:
    """Seconds a fresh interpreter spends importing wangtiles and building the built-ins."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise ProgramMissing(f"set-up imported wangtiles from {where}")
        times.append(float(seconds))
    return times


def _alarm(signum, frame):
    raise DeadlineExceeded()


def arith_kernel() -> None:
    """Integer arithmetic in a loop, like the solver's bitmask work."""
    acc = 0
    for i in range(20000):
        acc += i * i


def text_kernel() -> None:
    """String formatting with list and dict traffic, like the renderers."""
    parts, counts = [], {}
    for i in range(3000):
        parts.append(f'<r x="{i * 0.5:.3g}" k="{i % 7}"/>')
        counts[i & 63] = counts.get(i & 63, 0) + i
    "\n".join(parts)


# Per workload: the kernels whose speed tracks its operations' speed, and
# their time at reference speed.  The inflate operations mix big-integer
# spectral work with string building, so they need both kernels.
PROBES = {
    "certify": ((arith_kernel,), 1.2e-3),
    "tiling": ((arith_kernel,), 1.2e-3),
    "inflate": ((arith_kernel, text_kernel), 4.0e-3),
}


class SpeedGauge:
    """Probes the host's speed for PROBE_SHARE of the operation time, so the
    mean probe time is weighted like the operations themselves."""

    def __init__(self, kernels, reference_s: float) -> None:
        self.kernels, self.reference_s = kernels, reference_s
        self.probes = 0
        self.total = 0.0
        self.owed = 0.0
        for _ in range(10):
            self.probe()

    def probe(self) -> float:
        start = perf_counter()
        for kernel in self.kernels:
            kernel()
        elapsed = perf_counter() - start
        self.probes += 1
        self.total += elapsed
        return elapsed

    def after(self, seconds: float) -> None:
        self.owed += PROBE_SHARE * seconds
        while self.owed > 0:
            self.owed -= self.probe()

    @property
    def factor(self) -> float:
        """Host seconds per reference second: above 1 while the host runs slow."""
        return self.total / self.probes / self.reference_s


@dataclass
class Loop:
    ops: list[Op] = field(default_factory=list)
    outcomes: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Wall time spent inside operations; making inputs and checking results is excluded."""
        return sum(self.latencies)


def run_op(op: Op, deadline_s) -> tuple[str, float]:
    start = perf_counter()
    try:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = op.run()
        finally:
            if deadline_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "deadline", perf_counter() - start
    except Exception:  # an operation that raises is counted and reported, not fatal
        elapsed = perf_counter() - start
        print(f"operation {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return "exception", elapsed
    elapsed = perf_counter() - start
    return ("ok" if op.check(result) else "wrong"), elapsed


def fresh_ops(workload, seconds: float) -> Iterator[Op]:
    """Closed loop: each operation is made after the previous one returned, until the time is up."""
    start = perf_counter()
    while perf_counter() - start < seconds:
        yield workload.make_op()


def drive(workload, ops: Iterable[Op], gauge: SpeedGauge) -> Loop:
    """Run the operations; a deadline is in reference seconds, so it stretches while the host runs slow."""
    loop = Loop()
    for op in ops:
        deadline = workload.deadline_s and workload.deadline_s * gauge.factor
        outcome, seconds = run_op(op, deadline)
        gauge.after(seconds)
        loop.ops.append(op)
        loop.outcomes.append(outcome)
        loop.latencies.append(seconds)
    return loop


def sorted_latencies(outcomes, seconds) -> list[float]:
    """A deadline miss sorts as slower than every latency."""
    return sorted(float("inf") if o == "deadline" else s for o, s in zip(outcomes, seconds))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def failed_ops(outcomes: Counter) -> int:
    """Operations that returned a wrong answer or raised.  A deadline miss is
    counted on its own: which operations miss depends on the host's timing,
    and it is not a wrong output."""
    return outcomes["wrong"] + outcomes["exception"]


def loop_report(name: str, loops: list[Loop], factor: float) -> tuple[list[str], Counter]:
    outcomes = Counter(o for loop in loops for o in loop.outcomes)
    attempted = sum(outcomes.values())
    failed = failed_ops(outcomes)
    missed = outcomes["deadline"]
    lines = [
        f"{name}: ops attempted {attempted}, failed {failed} "
        f"(wrong {outcomes['wrong']}, exception {outcomes['exception']}), "
        f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}",
        f"{name}: deadline misses {missed}, deadline_miss_ratio {missed}/{attempted} = {missed / attempted:.4f}",
    ]
    by_kind: dict[str, list] = defaultdict(list)
    for loop in loops:
        for op, outcome, seconds in zip(loop.ops, loop.outcomes, loop.latencies):
            by_kind[op.kind].append((outcome, seconds))
    for kind, rows in sorted(by_kind.items()):
        kind_outcomes, kind_seconds = zip(*rows)
        p50 = statistics.median(sorted_latencies(kind_outcomes, kind_seconds)) / factor
        kind_counts = Counter(kind_outcomes)
        lines.append(
            f"  kind {kind:<12} ops {len(rows):>6}  failed {failed_ops(kind_counts):>4}  "
            f"missed {kind_counts['deadline']:>4}  p50_ms {1000 * p50:10.3f}"
        )
    return lines, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiling-deadline-ms", type=float, required=True,
                        help="deadline of each tiling operation (fixed in BENCHMARK.json)")
    args = parser.parse_args(argv)

    try:
        prog = load_program(SRC)
        setup_times = [] if args.trace else measure_setup(SETUP_SAMPLES // 2)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    deadline_s = args.tiling_deadline_ms / 1000 if args.workload == "tiling" else None
    env = (
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
        f"deadline_ms {f'{args.tiling_deadline_ms:g} (reference speed)' if deadline_s else 'none'}  "
        f"nproc {len(os.sched_getaffinity(0))}  python {platform.python_version()}"
    )
    print(env)
    rng = random.Random(args.seed)
    cls = WORKLOADS[args.workload]

    gauge = SpeedGauge(*PROBES[args.workload])
    if not args.trace:
        workload = cls(prog, rng, deadline_s)
        loop = drive(workload, fresh_ops(workload, args.seconds), gauge)
        # Half the set-up samples come after the loop, so that setup_s spans
        # the run rather than one moment of the host's speed.
        setup_times += measure_setup(SETUP_SAMPLES - len(setup_times))
        f = gauge.factor
        lines, outcomes = loop_report("run", [loop], f)
        latencies = sorted_latencies(loop.outcomes, loop.latencies)
        n = len(latencies)
        raw_ops_per_s = outcomes["ok"] / loop.busy_s
        raw_p50 = statistics.median(latencies)
        raw_setup = statistics.median(setup_times)
        ops_per_s, p50_ms, setup_s = raw_ops_per_s * f, 1000 * raw_p50 / f, raw_setup / f
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines += [
            f"speed factor {f:.4f} (mean of {gauge.probes} probes {1000 * f * gauge.reference_s:.4f} ms"
            f" / reference {1000 * gauge.reference_s:g} ms); times below are at reference speed, raw in brackets",
            f"setup_s {setup_s:.6f} s [{raw_setup:.6f}] (median of {len(setup_times)} fresh interpreters: "
            + ", ".join(f"{t:.4f}" for t in setup_times) + ")",
            f"ops_per_s {ops_per_s:.6f} 1/s [{raw_ops_per_s:.6f}] "
            f"({outcomes['ok']} correct ops / {loop.busy_s:.3f} s inside operations)",
            f"op_p50_ms {p50_ms:.4f} ms [{1000 * raw_p50:.4f}] (n={n})",
            (f"op_p90_ms {1000 * percentile(latencies, 0.9) / f:.4f} ms [{1000 * percentile(latencies, 0.9):.4f}] (n={n})"
             if n >= 100 else f"op_p90_ms not reported (n={n} < 100)"),
            f"peak_rss_mb {peak_mb:.3f} MB",
        ]
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        # The built-ins are built under the tracer, as setup_s builds them;
        # the loop then runs untraced for half the time, and the same
        # operations are replayed traced.
        tracer = Tracer()
        tracer.install()
        for name in prog.corpus.BUILTIN_NAMES:
            prog.corpus.builtin(name)
        workload = cls(prog, rng, deadline_s)
        tracer.uninstall()
        setup_builtin: SpanStats = tracer.stats["corpus.builtin"]
        tracer.reset()
        plain = drive(workload, fresh_ops(workload, args.seconds / 2), gauge)
        tracer.install()
        traced = drive(workload, plain.ops, gauge)
        tracer.uninstall()
        overhead_s = traced.busy_s - plain.busy_s
        silent = [s for s in workload.expected_spans if not tracer.stats[s].calls]
        if not setup_builtin.calls:
            silent.append("corpus.builtin")
        if silent:
            print(f"error: spans never fired on {args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 1
        lines, outcomes = loop_report("untraced + traced", [plain, traced], gauge.factor)
        lines += report_lines(tracer, setup_builtin)
        lines.append(
            f"trace.overhead_s {overhead_s:.4f} s (traced {traced.busy_s:.3f} s - untraced {plain.busy_s:.3f} s, "
            f"{len(plain.ops)} ops each)"
        )
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(tracer, setup_builtin, overhead_s, len(traced.ops)).items()
        }

    for line in lines:
        print(line)
    attempted = sum(outcomes.values())
    failed = failed_ops(outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
