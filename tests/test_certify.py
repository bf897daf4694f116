from __future__ import annotations

import importlib
import importlib.util
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from wangtiles import derivation, solver
from wangtiles.certify import _now, _search, certify
from wangtiles.core import WangTile, WangTileSet
from wangtiles.corpus import builtin
from wangtiles.morphism import CompositionError, Word2d, factors_2x2, iterate

from helpers import deadline
from morphism_reference import subwords
from torus_reference import torus_tiling

U = builtin("U").payload
V = builtin("V").payload
W = builtin("W").payload
# U with its tile order rotated by two: its letter 0 grows slowly under omega,
# so its inflation patch stays small.
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

    def test_self_map_that_does_not_assemble_is_a_failed_step(self, monkeypatch):
        def refuse(outer, inner):
            raise CompositionError("image of letter 0 does not assemble")

        monkeypatch.setattr(importlib.import_module("wangtiles.certify"), "compose", refuse)
        cert = certify(V, "V", [(1, 1), (2, 2)])
        assert [s.status for s in cert.steps] == ["pass", "pass", "pass", "fail"]
        assert cert.steps[3].evidence == {"error": "image of letter 0 does not assemble"}
        assert not cert.self_similar and not cert.aperiodic and not cert.minimal

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
# Re-record them only for an intended change of output (see
# data/record_goldens.py).
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


# String hashes, and so the iteration order of sets of colors and tiles,
# change from one interpreter to the next; the certificate must not.
@pytest.mark.parametrize("name, plan", [("U", "auto"), ("V", "e1:1,e2:2")])
def test_certificate_bytes_do_not_depend_on_the_hash_seed(name, plan):
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-m", "wangtiles.cli", "certify", name, "--plan", plan],
            env=env, capture_output=True, text=True, check=True,
        )
        doc = json.loads(out.stdout)
        del doc["timestamps"]
        outputs.append(json.dumps(doc, sort_keys=True, indent=2))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["conclusion"] == {
        "aperiodic": True, "minimal": True, "selfSimilar": True,
    }


# Exact rectangle-solve counts from a cold surrounding memo: a change that
# silently recomputes surroundings moves them.  The 2x2 factors' surroundings
# come from the harvested inflation patch, not from pinned solves.
@pytest.mark.parametrize("name, plan, solves", [("U", "auto", 170), ("V", [(1, 1), (2, 2)], 193)])
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
    "name, plan, outcomes", [("U", "auto", (43, 127, 0)), ("V", [(1, 1), (2, 2)], (47, 146, 0))]
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

    def survives(T, known, key, radius):
        shape = (len(key), len(key[0]))
        asked[shape] = max(radius, asked.get(shape, 0))
        return real_survives(T, known, key, radius)

    real_tables.cache_clear()
    monkeypatch.setattr(solver, "_tables", lambda T: memos.setdefault(T, real_tables(T)))
    monkeypatch.setattr(solver, "_survives", survives)
    cert = certify(T, name, plan)
    monkeypatch.undo()
    real_tables.cache_clear()
    checked = 0
    for T, tables in memos.items():
        for key, (alive, dead) in tables.known.items():
            pattern = Word2d(key)
            if alive >= 0:
                r = min(alive, asked[pattern.shape])
                assert solver.pattern_has_surrounding(T, pattern, r), (pattern, r)
            if dead is not None:
                assert not solver.pattern_has_surrounding(T, pattern, dead), (pattern, dead)
            checked += 1
    assert checked > 100
    return cert


# The 2x2 closure of the self-map certify builds equals the 2x2 windows of a
# deep iterate of it: level 7 already shows every factor, level 9 is 55x55.
@pytest.mark.parametrize(
    "name, steps, count", [("V", [(1, 1), (2, 2)], 56), ("W", [None, None], 50)]
)
def test_factor_closure_matches_a_deep_iterate(name, steps, count):
    sm = _search(builtin(name).payload, steps, [])
    factors = factors_2x2(sm.omega)
    assert len(factors) == count
    assert factors == subwords(iterate(sm.omega, 0, 9), (2, 2))


@pytest.mark.parametrize("name, plan", [("U", "auto"), ("V", [(1, 1), (2, 2)]), ("W", "auto")])
def test_memo_facts_hold_from_scratch(monkeypatch, name, plan):
    assert _check_memo_facts(monkeypatch, builtin(name).payload, name, plan).all_verified()


# The rotated set's patch grows from a slow letter; its facts hold too.
def test_memo_facts_hold_from_scratch_on_rotated_u(monkeypatch):
    assert _check_memo_facts(monkeypatch, U_ROTATED, "U", "auto").all_verified()


# The rotated set once took 21 satisfiable 7x14 pinned solves (a vertical
# domino at radius 3, asked by a stability check of step 1's regrouping) and
# 237 solves in all; the auto plan asks no such check, and a surrounding
# question costs one solve at the radius asked (174 solves in all).
def test_rotated_u_needs_no_satisfiable_7x14_solve(monkeypatch):
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
    assert calls <= 180


# Exact derive() calls from a cold surrounding memo: each derivation step
# builds one derivation when the first chain closes.
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


# With e1 tried first, the auto plan takes e1 at step 1 and e2 at step 2, and
# U still certifies.  tests/data/record_goldens.py records the
# certificate and the derive() count; the facts the run leaves in the memos
# hold too.
def test_u_certifies_with_e1_tried_first(monkeypatch):
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
    cert = _check_memo_facts(monkeypatch, U, "U", "auto")
    assert cert.all_verified()
    doc = json.loads(cert.to_json())
    del doc["timestamps"]
    assert doc == recorded["certificate"]
    assert calls == recorded["deriveCalls"]


# Candidates and derivations are not kept across certify runs: a second run
# on the same set, with the surrounding memos still warm, finds and derives
# again exactly as the first did.
@pytest.mark.parametrize(
    "name, plan, derives, finds", [("U", "auto", 2, 3), ("V", [(1, 1), (2, 2)], 2, 2)]
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


# The eight symmetries of the square, as maps of a tile's (right, top, left,
# bottom) colors: the rotations counterclockwise, then the mirrors in the
# vertical axis, the horizontal axis, the diagonal and the antidiagonal.
D4 = {
    "identity": lambda r, t, l, b: (r, t, l, b),
    "rot90": lambda r, t, l, b: (b, r, t, l),
    "rot180": lambda r, t, l, b: (l, b, r, t),
    "rot270": lambda r, t, l, b: (t, l, b, r),
    "mirror1": lambda r, t, l, b: (l, t, r, b),
    "mirror2": lambda r, t, l, b: (r, b, l, t),
    "diagonal": lambda r, t, l, b: (t, r, b, l),
    "antidiagonal": lambda r, t, l, b: (b, l, t, r),
}


# Step 2 of the auto plan takes the axis step 1 did not use, so the diagonal
# mirror, which swaps the axes, certifies like the set itself.  Every image
# finishes under the deadline.  Which of the other images certify is left
# open: they wait on choosing the marker side by reflection.
@pytest.mark.parametrize("symmetry", list(D4))
@pytest.mark.parametrize("name", ["U", "V", "W"])
def test_d4_images_under_auto(name, symmetry):
    image = WangTileSet(WangTile(*D4[symmetry](*t.as_tuple())) for t in builtin(name).payload)
    with deadline(10):
        cert = certify(image, name, "auto")
    if symmetry in ("identity", "diagonal"):
        assert cert.all_verified()


def test_timestamps_are_iso_8601_at_utc():
    cert = certify(U, "U", "auto")
    started = datetime.fromisoformat(cert.started)
    finished = datetime.fromisoformat(cert.finished)
    assert started.utcoffset() == finished.utcoffset() == timedelta(0)
    assert started <= finished


@pytest.mark.parametrize("ns", [0, 999, 1_000, 1_600_000_000 * 10**9, 1_792_000_123_456_789_012])
def test_now_writes_what_datetime_isoformat_writes(monkeypatch, ns):
    # Microseconds are left out when they are zero, as isoformat does.
    monkeypatch.setattr(time, "time_ns", lambda: ns)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    assert _now() == (epoch + timedelta(microseconds=ns // 1000)).isoformat()


_RECORDER = DATA / "record_goldens.py"
_spec = importlib.util.spec_from_file_location("record_goldens", _RECORDER)
recorded = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorded)


def test_check_mode_passes_on_the_golden_certificates(capsys):
    assert recorded.main(["--check"]) == 0
    assert "28 of 28 files match" in capsys.readouterr().err


def test_check_mode_names_what_differs_and_writes_nothing(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    (data / "certificate_W_auto.json").write_text("stale")
    (data / "fallback_U_auto_e1-first.json").unlink()
    monkeypatch.setattr(recorded, "DATA", data)
    assert recorded.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "differs: certificate_W_auto.json" in err
    assert "differs: fallback_U_auto_e1-first.json" in err
    assert "differs: certificate_U_auto.json" not in err
    assert "26 of 28 files match" in err
    assert (data / "certificate_W_auto.json").read_text() == "stale"
    assert not (data / "fallback_U_auto_e1-first.json").exists()


def _interpreter(minor: int):
    """A python3.<minor> that starts: the one on the PATH, else one of
    pyenv's builds, which its shims may refuse to start; None if none does."""
    found = [shutil.which(f"python3.{minor}")]
    found += sorted(Path.home().glob(f".pyenv/versions/3.{minor}.*/bin/python3.{minor}"))
    for exe in filter(None, found):
        if not subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=60).returncode:
            return exe
    return None


# The golden bytes must not depend on the interpreter: every other CPython
# 3.10-3.13 that starts here reproduces all of them.
@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_check_mode_passes_under_other_interpreters(minor):
    exe = None if minor == sys.version_info.minor else _interpreter(minor)
    if exe is None:
        pytest.skip(f"no other python3.{minor} starts here")
    env = {**os.environ, "PYTHONPATH": str(Path(derivation.__file__).parents[1])}
    done = subprocess.run(
        [exe, str(_RECORDER), "--check"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "28 of 28 files match" in done.stderr


def _check_torus(T: WangTileSet, rows: list, p: int, q: int) -> None:
    """Fail unless rows is a p-wide, q-high torus tiling by tiles of T."""
    assert len(rows) == q
    for k, row in enumerate(rows):
        assert len(row) == p and all(t in T for t in row)
        assert all(row[x].right == row[(x + 1) % p].left for x in range(p))
        above = rows[(k + 1) % q]
        assert all(row[x].top == above[x].bottom for x in range(p))


@pytest.mark.parametrize("name", ["U", "V", "W"])
def test_no_small_torus_tiling(name):
    T = builtin(name).payload
    for p in (1, 2, 3, 5, 8):
        for q in range(1, 14):
            assert torus_tiling(T, p, q) is None, (p, q)


def _random_tileset(seed: int) -> WangTileSet:
    """2-6 distinct tiles over 2 or 3 colors."""
    rng = random.Random(seed)
    colors = "abc"[: rng.randint(2, 3)]
    tiles = [WangTile(*c) for c in itertools.product(colors, repeat=4)]
    return WangTileSet(rng.sample(tiles, rng.randint(2, 6)))


def test_a_set_with_a_torus_tiling_is_never_certified_aperiodic():
    periodic = 0
    for seed in range(60):
        T = _random_tileset(seed)
        tori = [(p, q, torus_tiling(T, p, q)) for p in range(1, 5) for q in range(1, 5)]
        tori = [(p, q, rows) for p, q, rows in tori if rows is not None]
        for p, q, rows in tori:
            _check_torus(T, rows, p, q)
        cert = certify(T, f"seed {seed}")
        if tori:
            periodic += 1
            assert not cert.aperiodic, seed
    # Most draws have a torus tiling, so the property is not tested vacuously.
    assert periodic >= 30
