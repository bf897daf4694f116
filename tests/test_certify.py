from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from wangtiles import derivation, solver
from wangtiles.certify import certify
from wangtiles.core import WangTile, WangTileSet
from wangtiles.corpus import builtin

U = builtin("U").payload
V = builtin("V").payload
W = builtin("W").payload
# U with its tile order rotated by two: its letter 0 grows slowly under omega,
# so a patch stopped by the 2x2 factors' radius-1 rule is too small for the
# radius-3 windows that step 1's stability check asks about.
U_ROTATED = WangTileSet(list(U)[2:] + list(U)[:2])

DATA = Path(__file__).parent / "data"


class TestAutoPlanOnU:
    def test_full_conclusion(self):
        cert = certify(U, "U", "auto")
        assert cert.self_similar and cert.aperiodic and cert.minimal
        assert [s.status for s in cert.steps] == ["pass"] * 5

    def test_reproduces_the_reference_derivation_path(self):
        cert = certify(U, "U", "auto")
        step1 = cert.steps[0].evidence
        assert step1["direction"] == 2
        assert step1["radius"] == 2
        assert step1["markers"] == list(range(8))
        assert step1["derivedSize"] == 21
        step2 = cert.steps[1].evidence
        assert step2["direction"] == 1
        assert step2["radius"] == 1
        assert step2["derivedSize"] == 19
        eq = cert.steps[2].evidence
        # the twice-derived set is construction-ordered, so the tile map is
        # a permutation; the color bijections do not depend on numbering
        assert sorted(eq["tileBijection"].values()) == list(range(19))
        from wangtiles.corpus import HORIZONTAL_RELABEL, VERTICAL_RELABEL

        assert eq["verticalBijection"] == VERTICAL_RELABEL
        assert eq["horizontalBijection"] == HORIZONTAL_RELABEL
        assert cert.steps[3].evidence["primitivityExponent"] == 7
        assert cert.steps[4].evidence == {
            "factorCount": 50, "admittedCount": 50, "radius": 1,
        }

    def test_json_is_stable_and_sorted(self):
        cert = certify(U, "U", "auto")
        doc = json.loads(cert.to_json())
        assert list(doc) == sorted(doc)
        assert set(doc["conclusion"]) == {"selfSimilar", "aperiodic", "minimal"}
        assert doc["toolVersion"]


class TestOtherSubjects:
    def test_w_certifies_like_u(self):
        cert = certify(W, "W", "auto")
        assert cert.all_verified()

    def test_v_with_explicit_plan(self):
        cert = certify(V, "V", [(1, 1), (2, 2)])
        assert cert.self_similar and cert.aperiodic
        # the factor equality needs one extra ring here
        assert cert.minimal
        assert cert.steps[4].evidence["radius"] == 2

    def test_periodic_set_fails_at_markers(self):
        one = WangTileSet([WangTile("A", "B", "A", "B")])
        cert = certify(one, "one", "auto")
        assert not cert.all_verified()
        assert cert.steps[-1].status == "fail"
        assert not cert.self_similar and not cert.aperiodic and not cert.minimal

    def test_two_tile_periodic_set_fails(self):
        # A checkerboard pair: tiles the plane periodically, so some step
        # must refuse; the pipeline reports failure rather than crashing.
        pair = WangTileSet(
            [WangTile("a", "x", "b", "y"), WangTile("b", "y", "a", "x")]
        )
        cert = certify(pair, "pair", "auto")
        assert not cert.all_verified()

    def test_failed_derivation_invariant_is_a_failed_step(self, monkeypatch):
        monkeypatch.setattr(derivation, "check_recognizability_criterion", lambda *a: False)
        cert = certify(U, "U", "auto")
        assert not cert.all_verified()
        assert [s.status for s in cert.steps] == ["fail"]
        assert "non-recognizable" in cert.steps[0].evidence["error"]

    @pytest.mark.parametrize(
        "entry",
        [(1, -1), (3, 1), (0, 1), (1.0, 1), (1, 1.0), (1, "1"), (1,), (1, 1, 1), 7],
        ids=[
            "negative", "axis3", "axis0", "float-axis", "float", "string", "short", "long", "scalar"
        ],
    )
    def test_bad_plan_entry(self, entry):
        with pytest.raises(ValueError, match="bad plan entry"):
            certify(V, "V", [entry, (2, 2)])
        with pytest.raises(ValueError, match="bad plan entry"):
            certify(V, "V", [(1, 1), entry])

    def test_bad_plan_length(self):
        try:
            certify(U, "U", [(2, 2)])
        except ValueError as e:
            assert "two derivation steps" in str(e)
        else:
            raise AssertionError("expected a plan-length error")


# Certificates recorded before the solver's fast paths went in; every run must
# reproduce them byte for byte once the wall-clock timestamps are dropped.
@pytest.mark.parametrize(
    "name, plan, golden",
    [
        ("U", "auto", "certificate_U_auto.json"),
        ("V", [(1, 1), (2, 2)], "certificate_V_e1-1_e2-2.json"),
        ("W", "auto", "certificate_W_auto.json"),
    ],
)
def test_certificate_matches_golden_bytes(name, plan, golden):
    doc = json.loads(certify(builtin(name).payload, name, plan).to_json())
    del doc["timestamps"]
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == (DATA / golden).read_text()


# Exact rectangle-solve counts from a cold surrounding memo: a change that
# silently recomputes surroundings moves them.  The 2x2 factors' surroundings
# and, for the auto plan, the stability checks' come from the harvested
# inflation patch, not from pinned solves.
@pytest.mark.parametrize("name, plan, solves", [("U", "auto", 211), ("V", [(1, 1), (2, 2)], 217)])
def test_rectangle_solve_count(monkeypatch, name, plan, solves):
    calls = 0
    real = solver.solve_rectangle

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_rectangle", counted)
    solver._tables.cache_clear()
    assert certify(builtin(name).payload, name, plan).all_verified()
    assert calls == solves


# How those solves end: (satisfiable, refuted by the initial propagation,
# refuted by search).  Every refutation needs no search; a change that
# weakens the propagation moves solves from the second count to the third.
@pytest.mark.parametrize(
    "name, plan, outcomes", [("U", "auto", (76, 135, 0)), ("V", [(1, 1), (2, 2)], (71, 146, 0))]
)
def test_rectangle_solve_outcomes(monkeypatch, name, plan, outcomes):
    satisfiable = propagated = searched = 0
    real_solve, real_propagate = solver.solve_rectangle, solver._propagate

    def propagate(*args):
        nonlocal propagated
        consistent = real_propagate(*args)
        propagated += not consistent
        return consistent

    def solve(*args, **kwargs):
        nonlocal satisfiable, searched
        before = propagated
        found = real_solve(*args, **kwargs)
        satisfiable += bool(found)
        searched += not found and propagated == before
        return found

    monkeypatch.setattr(solver, "_propagate", propagate)
    monkeypatch.setattr(solver, "solve_rectangle", solve)
    solver._tables.cache_clear()
    assert certify(builtin(name).payload, name, plan).all_verified()
    assert (satisfiable, propagated, searched) == outcomes


# Every fact a certify run leaves in the surrounding memos, whether solved or
# harvested from an inflation patch, holds when asked afresh.  A patch also
# witnesses radii above any the run asks about; a fact is checked at most at
# the top radius the run asked of its shape, since one radius-4 2x2
# surrounding alone can take seconds to solve.
def _check_memo_facts(monkeypatch, T, name, plan):
    """Certify the set, then re-ask every fact left in the memos."""
    real_tables, real_survives = solver._tables, solver._survives
    memos = {}  # tile set -> its tables, kept past the cache's evictions
    asked: dict[tuple[int, int], int] = {}

    def survives(T, known, pattern, radius):
        asked[pattern.shape] = max(radius, asked.get(pattern.shape, 0))
        return real_survives(T, known, pattern, radius)

    real_tables.cache_clear()
    monkeypatch.setattr(solver, "_tables", lambda T: memos.setdefault(T, real_tables(T)))
    monkeypatch.setattr(solver, "_survives", survives)
    cert = certify(T, name, plan)
    monkeypatch.undo()
    real_tables.cache_clear()
    checked = 0
    for T, tables in memos.items():
        for pattern, (alive, dead) in tables.known.items():
            if alive >= 0:
                r = min(alive, asked[pattern.shape])
                assert solver.pattern_has_surrounding(T, pattern, r), (pattern, r)
            if dead is not None:
                assert not solver.pattern_has_surrounding(T, pattern, dead), (pattern, dead)
            checked += 1
    assert checked > 100
    return cert


@pytest.mark.parametrize("name, plan", [("U", "auto"), ("V", [(1, 1), (2, 2)]), ("W", "auto")])
def test_memo_facts_hold_from_scratch(monkeypatch, name, plan):
    assert _check_memo_facts(monkeypatch, builtin(name).payload, name, plan).all_verified()


# The rotated set's patch grows to the radius-3 windows of step 1's stability
# check, so it records more facts; they hold too.
def test_memo_facts_hold_from_scratch_on_rotated_u(monkeypatch):
    assert _check_memo_facts(monkeypatch, U_ROTATED, "U", "auto").all_verified()


# The auto plan witnesses step 1's stability check from omega's patch at the
# radius regroup asks: on the rotated set, the parent's radius-1 patch left 21
# satisfiable 7x14 pinned solves (a vertical domino at radius 3) on the set
# and 237 solves in all.
def test_rotated_u_stability_checks_are_witnessed(monkeypatch):
    calls = satisfiable_7x14 = 0
    real = solver.solve_rectangle

    def counted(T, width, height, pins, mode):
        nonlocal calls, satisfiable_7x14
        calls += 1
        found = real(T, width, height, pins, mode)
        satisfiable_7x14 += T == U_ROTATED and (width, height) == (7, 14) and bool(found)
        return found

    monkeypatch.setattr(solver, "solve_rectangle", counted)
    solver._tables.cache_clear()
    assert certify(U_ROTATED, "U", "auto").all_verified()
    assert satisfiable_7x14 == 0
    assert calls <= 210


# Exact derive() calls from a cold surrounding memo: each derivation step
# builds one derivation, and the auto plan's stability test builds none.
@pytest.mark.parametrize("name, plan, derives", [("U", "auto", 2), ("V", [(1, 1), (2, 2)], 2)])
def test_derive_count(monkeypatch, name, plan, derives):
    module = importlib.import_module("wangtiles.certify")
    calls = 0
    real = module.derive

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "derive", counted)
    solver._tables.cache_clear()
    assert certify(builtin(name).payload, name, plan).all_verified()
    assert calls == derives


# With e1 tried first, U's first auto candidate (e1, radius 1, markers
# {0, 1, 8, 9, 10, 11}) regroups differently at radius 2, so the provisional
# chain is refuted and the rule falls back to e1 at radius 2.  The certificate
# and the derive() count were recorded before the provisional chain existed;
# the chain's own second-step derivation is the one derive() more.  The facts
# the refuted chain left in the memos must hold too.
def test_provisional_chain_fallback(monkeypatch):
    recorded = json.loads((DATA / "fallback_U_auto_e1-first.json").read_text())
    module = importlib.import_module("wangtiles.certify")
    calls = 0
    real = module.derive

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "AUTO_DIRECTIONS", (1, 2))
    monkeypatch.setattr(module, "derive", counted)
    doc = json.loads(_check_memo_facts(monkeypatch, U, "U", "auto").to_json())
    del doc["timestamps"]
    assert doc == recorded["certificate"]
    assert calls == recorded["deriveCalls"] + 1


# The memo of candidates and derivations lives for one certify run: a second
# run on the same set, with the surrounding memos still warm, finds and
# derives again exactly as the first did.
@pytest.mark.parametrize(
    "name, plan, derives, finds", [("U", "auto", 2, 6), ("V", [(1, 1), (2, 2)], 2, 2)]
)
def test_candidate_memo_lasts_one_run(monkeypatch, name, plan, derives, finds):
    module = importlib.import_module("wangtiles.certify")
    calls = {"derive": 0, "find_marker_candidates": 0}

    def counted(fn):
        def call(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return call

    for fn in calls:
        monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
    for _ in range(2):
        calls.update(derive=0, find_marker_candidates=0)
        assert certify(builtin(name).payload, name, plan).all_verified()
        assert calls == {"derive": derives, "find_marker_candidates": finds}
