"""The benchmark harness runs end to end on the tree under test.

A short traced certify run must exit 0 and report every operation correct.
The traced half also requires each of the workload's expected spans to fire,
so a change that stops one of them fails here, not first in a full benchmark
run.  The run takes about 1 s of operations per half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_certify_run_reports_every_op_correct():
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--tiling-deadline-ms", "250",
            "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["attempted"] > 0 and report["failed"] == 0
