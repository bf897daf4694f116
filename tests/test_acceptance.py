"""Acceptance criteria: one test per headline claim, with its budget.

Each test delegates to the shared suite so the CLI ``suite`` subcommand and
this module can never disagree, prints the pass/fail line, and enforces the
stated time budget.
"""

from __future__ import annotations

import random
import time

import pytest
from suite_reference import product_count

from wangtiles import spectral, suite
from wangtiles.suite import C13_SEED, CRITERIA, _brute_force_count, _oracle_cases

# Each criterion's budget is 20 times the slowest of five in-process runs
# of it, rounded up to a whole second.  On a 2-vCPU host under Python 3.11
# C01, with its cold certify, took at most 0.054 s and every other criterion
# at most 0.026 s (C13), so a 100x slowdown of C01, C13 or C14 fails.
BUDGETS = {
    "C01": 2, "C02": 1, "C03": 1, "C04": 1, "C05": 1, "C06": 1, "C07": 1,
    "C08": 1, "C09": 1, "C10": 1, "C11": 1, "C12": 1, "C13": 1, "C14": 1,
}


@pytest.mark.parametrize("code,name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(code, name, fn):
    t0 = time.time()
    ok, detail = fn()
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"{status} {code} {name} ({elapsed:.1f}s) :: {detail}")
    assert ok, f"{code} {name}: {detail}"
    assert elapsed <= BUDGETS[code], f"{code} exceeded its {BUDGETS[code]}s budget"


def test_c13_oracle_matches_product_reference():
    """C13's depth-first oracle counts what the product loop it replaced
    counts, on C13's own 200 cases."""
    counts = [
        (_brute_force_count(tiles, width, height), product_count(tiles, width, height))
        for tiles, width, height in _oracle_cases(random.Random(C13_SEED))
    ]
    assert len(counts) == 200
    assert all(fast == slow for fast, slow in counts)
    assert sum(slow > 0 for _, slow in counts) > 100  # most cases have tilings to count


def test_c08_decides_primitivity_once(monkeypatch):
    """C08 feeds the exponent it holds to the power iteration instead of
    asking perron(), which decides primitivity again."""
    calls = 0
    real = spectral.is_primitive

    def counted(M):
        nonlocal calls
        calls += 1
        return real(M)

    monkeypatch.setattr(spectral, "is_primitive", counted)
    monkeypatch.setattr(suite, "is_primitive", counted)
    assert suite.criterion_08_spectral() == (
        True,
        "matrix: True, exponent: 7, charpoly: True, perron: True, eigenvectors: True",
    )
    assert calls == 1
