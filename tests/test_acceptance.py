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

from wangtiles.suite import C13_SEED, CRITERIA, _brute_force_count, _oracle_cases

BUDGETS = {
    "C01": 60, "C02": 30, "C03": 10, "C04": 60, "C05": 30, "C06": 10,
    "C07": 1, "C08": 5, "C09": 120, "C10": 1, "C11": 1, "C12": 1,
    "C13": 120, "C14": 300,
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
