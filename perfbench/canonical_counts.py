"""Exact traffic counts of one certify run on the canonical U and V.

    python3 perfbench/canonical_counts.py

Traces certify(U, plan auto) and certify(V, plan e1:1,e2:2) once each and
prints the counts that later changes to the solver and the derivation layer
cite, next to the baseline recorded in README.md.  The counts do not depend
on timing, so they repeat exactly; the exit code is 1 when one differs from
the baseline.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer
from workloads import load_program

BASELINE = {
    "U": {"solver.dominoes_with_surrounding.calls": 36, "solver.dominoes.distinct_keys": 12,
          "solver.solve_rectangle.calls": 3657, "solver.exists.calls": 3656, "solver.enumerate.calls": 1,
          "solver.solve_rectangle.sat": 2439},
    "V": {"solver.dominoes_with_surrounding.calls": 14, "solver.dominoes.distinct_keys": 4,
          "solver.solve_rectangle.calls": 1567, "solver.exists.calls": 1565, "solver.enumerate.calls": 2,
          "solver.solve_rectangle.sat": 933},
}
PLANS = {"U": "auto", "V": [(1, 1), (2, 2)]}


def counts(tracer: Tracer) -> dict[str, int]:
    st = tracer.stats
    out = {f"{name}.calls": s.calls for name, s in st.items() if s.calls}
    out["solver.dominoes.distinct_keys"] = len(tracer.domino_keys)
    out["solver.solve_rectangle.sat"] = st["solver.solve_rectangle"].truthy
    out["derivation.verify_markers.accepted"] = st["derivation.verify_markers"].truthy
    return out


def main() -> int:
    prog = load_program(Path(__file__).resolve().parent.parent / "src")
    differ = 0
    for name, plan in PLANS.items():
        T = prog.corpus.builtin(name).payload
        tracer = Tracer()
        tracer.install()
        try:
            cert = prog.certify.certify(T, name, plan)
        finally:
            tracer.uninstall()
        got = counts(tracer)
        print(f"{name} plan {plan}: all verified {cert.all_verified()}")
        for key, value in sorted(got.items()):
            expected = BASELINE[name].get(key)
            mark = "" if expected is None else ("  (baseline, matches)" if value == expected else f"  (baseline {expected}: DIFFERS)")
            differ += expected is not None and value != expected
            print(f"  {key:<44} {value:>7}{mark}")
        solves, sat = got["solver.solve_rectangle.calls"], got["solver.solve_rectangle.sat"]
        print(f"  solver.solve_rectangle.sat_ratio {sat / solves:.4f} ({sat}/{solves})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
