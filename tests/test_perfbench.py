"""The benchmark harness runs end to end on the tree under test.

A short traced run of each workload must exit 0 and report every operation
correct.  The traced half also requires each of the workload's expected spans
to fire, so a change that stops one of them fails here, not first in a full
benchmark run; the inflate run checks each exact Perron root against
lambda = phi^(2k).  Each run takes about 1 s of operations per half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["certify", "tiling", "inflate"])
def test_traced_run_reports_every_op_correct(workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--tiling-deadline-ms", "250",
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["attempted"] > 0 and report["failed"] == 0
