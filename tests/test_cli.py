from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from wangtiles import cli, derivation, spectral
from wangtiles.cli import main
from wangtiles.core import emit_tileset, parse_tileset
from wangtiles.corpus import builtin
from wangtiles.morphism import compose

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDominoes:
    def test_delimited_output(self, capsys):
        code, out, _ = run(capsys, "dominoes", "U", "--dir", "2", "--radius", "2")
        assert code == 0
        pairs = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
        assert len(pairs) == 35
        assert pairs[0] == (0, 8)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "dominoes", "V", "--dir", "1", "--radius", "1", "--json")
        assert code == 0
        assert len(json.loads(out)) == 30

    def test_negative_radius_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "dominoes", "U", "--dir", "2", "--radius", "-1")
        assert code == 2
        assert out == ""
        assert "radius" in err

    def test_huge_radius_is_refused_at_once(self):
        # One solve at the radius asked: its 200001 x 400002 rectangle cannot
        # be allocated, so the command exits 2 at once instead of solving
        # every radius below it.  The address-space cap makes the allocation
        # fail the same way whatever the host's overcommit policy.
        cap = 2 << 30
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-m", "wangtiles.cli", "dominoes", "U", "--dir", "2",
             "--radius", "100000"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: MemoryError\n"


class TestPatterns:
    def test_patterns_json(self, capsys):
        code, out, _ = run(capsys, "patterns", "U", "--shape", "2x2", "--radius", "1")
        assert code == 0
        pats = json.loads(out)
        assert len(pats) == 50
        assert all(len(p) == 2 and len(p[0]) == 2 for p in pats)

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "patterns", "U", "--shape", "two", "--radius", "1")
        assert code == 2
        assert "shape" in err

    def test_negative_radius_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "patterns", "U", "--shape", "2x2", "--radius", "-1")
        assert code == 2
        assert out == ""
        assert "radius" in err

    def test_out_of_memory_is_an_input_error(self, capsys, monkeypatch):
        # A shape too large for memory (30000x30000 under a 1.5 GB address
        # space) exhausts it inside the solver; that must exit 2, not crash.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "patterns_with_surrounding", exhausted)
        code, out, err = run(capsys, "patterns", "U", "--shape", "30000x30000", "--radius", "0")
        assert code == 2
        assert out == ""
        assert err == "error: MemoryError\n"

    def test_too_many_patterns_are_refused_at_once(self):
        # A 100x100 rectangle has far too many tilings to list: the count
        # taken before the search refuses it, so the command exits 2 within
        # the timeout instead of enumerating.  The address-space cap bounds
        # what a runaway enumeration could take before the timeout kills it.
        cap = 2 << 30
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-m", "wangtiles.cli", "patterns", "U", "--shape", "100x100"],
            capture_output=True,
            text=True,
            env=env,
            timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


class TestMarkers:
    def test_find(self, capsys):
        code, out, _ = run(capsys, "markers", "U", "--dir", "2", "--radius", "2")
        assert code == 0
        assert out.strip() == "0 1 2 3 4 5 6 7"

    def test_verify_pass(self, capsys):
        code, out, _ = run(
            capsys, "markers", "V", "--dir", "1", "--radius", "1",
            "--verify", "0,1,3,8,9,14,15",
        )
        assert code == 0
        assert "verified" in out

    def test_verify_fail(self, capsys):
        code, out, _ = run(capsys, "markers", "U", "--dir", "2", "--radius", "2", "--verify", "0")
        assert code == 1


class TestDerive:
    def test_derive_u(self, capsys, tmp_path):
        out_base = tmp_path / "derived"
        code, _, _ = run(
            capsys, "derive", "U", "--dir", "2", "--radius", "2",
            "--markers", "0,1,2,3,4,5,6,7", "--out", str(out_base),
        )
        assert code == 0
        derived = parse_tileset(out_base.with_suffix(".tiles").read_text())
        assert len(derived) == 21
        witness = json.loads(out_base.with_suffix(".witness.json").read_text())
        assert sorted(witness) == list(range(21))
        morphism = json.loads(out_base.with_suffix(".morphism.json").read_text())
        assert len(morphism) == 21

    def test_derive_auto_markers(self, capsys):
        code, out, _ = run(capsys, "derive", "U", "--dir", "2", "--radius", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["singles"] == [8, 9, 11, 13, 14, 15, 16, 17]
        assert not doc["degenerate"]

    def test_unverified_markers_are_a_failed_claim(self, capsys):
        """derive refuses markers that do not verify with exit 1, as markers
        --verify does, and prints the same report."""
        code, report, _ = run(
            capsys, "markers", "U", "--dir", "1", "--radius", "1", "--verify", "0,1"
        )
        assert code == 1
        assert report.startswith("marker/non-marker dominoes across the axis: ")
        code, out, err = run(
            capsys, "derive", "U", "--dir", "1", "--radius", "1", "--markers", "0,1"
        )
        assert code == 1
        assert out == report and err == ""

    def test_failed_derivation_invariant_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(derivation, "check_recognizability_criterion", lambda *a: False)
        code, _, err = run(capsys, "derive", "U", "--dir", "2", "--radius", "2")
        assert code == 2
        assert "non-recognizable" in err and "Traceback" not in err


class TestIterateAndRender:
    def test_iterate(self, capsys):
        code, out, _ = run(capsys, "iterate", "omega", "4", "5")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8 and len(rows[0]) == 13

    def test_iterate_over_the_cell_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "iterate", "omega", "0", "60")
        assert code == 2 and not out
        assert err.startswith("error: iteration step 17 would bring the cells built")

    def test_render_letter(self, capsys):
        code, out, _ = run(capsys, "render", "U", "--letter", "0", "--labels", "colors")
        assert code == 0
        assert "J" in out and "F" in out

    def test_render_iterate_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "patch.svg"
        code, _, _ = run(
            capsys, "render", "U", "--iterate", "omega", "4", "3",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0
        assert target.read_text().startswith('<?xml')

    def test_render_stone(self, capsys):
        code, out, _ = run(capsys, "render", "U", "--iterate", "omega", "12", "1", "--stone")
        assert code == 0
        assert "<svg" in out

    def test_render_morphism(self, capsys):
        code, out, _ = run(capsys, "render", "U", "--morphism", "omega", "--format", "text")
        assert code == 0
        assert "->" in out

    def test_render_pattern_file(self, capsys, tmp_path):
        pattern = tmp_path / "p.json"
        pattern.write_text("[[2, 0], [14, 8]]")
        code, out, _ = run(capsys, "render", "U", "--pattern", str(pattern))
        assert code == 0
        assert "14" in out

    def test_render_without_source(self, capsys):
        code, _, err = run(capsys, "render", "U")
        assert code == 2

    def test_negative_step_count_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "iterate", "omega", "0", "-3")
        assert code == 2
        assert out == ""
        assert "iteration count" in err

    def test_iterate_a_cycling_table(self, capsys, tmp_path):
        # U's letters 0 and 1 swap and every other letter is fixed: the words
        # cycle without a fixed point, so a billion steps skip whole periods.
        table = tmp_path / "swap.json"
        table.write_text(json.dumps({str(a): [[{0: 1, 1: 0}.get(a, a)]] for a in range(19)}))
        code, out, _ = run(
            capsys, "iterate", str(table), "0", str(10**9 + 1), "--domain", "U", "--codomain", "U"
        )
        assert code == 0
        assert json.loads(out) == [[1]]

    def test_iterate_over_the_work_limit_is_a_usage_error(self, capsys, tmp_path):
        # U's letter 0 -> (0 1) and every other letter is fixed: the word
        # grows by one cell a step, so the steps' cells sum past the limit.
        table = tmp_path / "grow.json"
        table.write_text(json.dumps({str(a): [[0], [1]] if a == 0 else [[a]] for a in range(19)}))
        code, out, err = run(
            capsys, "iterate", str(table), "0", str(10**5), "--domain", "U", "--codomain", "U"
        )
        assert code == 2 and not out
        assert err.startswith("error: iteration step 2895 would bring the cells built")
        assert "Traceback" not in err

    def test_malformed_morphism_table_is_a_usage_error(self, capsys, tmp_path):
        table = tmp_path / "m.json"
        for doc in ({"0": 5}, {"0": [5]}, {"0": [["a"]]}, [[0]]):
            table.write_text(json.dumps(doc))
            code, out, err = run(
                capsys, "iterate", str(table), "0", "1", "--domain", "U", "--codomain", "U"
            )
            assert code == 2, doc
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [{"rows": [[0]]}, [[0.0, 1.0]], [["0", "1"]]],
        ids=["object", "floats", "strings"],
    )
    def test_malformed_pattern_file_is_a_usage_error(self, capsys, tmp_path, doc):
        pattern = tmp_path / "p.json"
        pattern.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "U", "--pattern", str(pattern))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "U", "--pattern", "F"],
            ["render", "U", "--morphism", "F", "--domain", "U", "--codomain", "U"],
            ["spectral", "F", "--domain", "U", "--codomain", "U"],
            ["iterate", "F", "0", "1", "--domain", "U", "--codomain", "U"],
        ],
        ids=["render-pattern", "render-morphism", "spectral", "iterate"],
    )
    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path, argv):
        # json.loads raises RecursionError, a RuntimeError, on this depth.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run(capsys, *[str(deep) if a == "F" else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_letter_out_of_range(self, capsys):
        code, _, err = run(capsys, "render", "U", "--letter", "99")
        assert code == 2
        assert err == "error: cell (0,0) holds letter 99, outside 0..18\n"
        code, _, err = run(capsys, "iterate", "omega", "99", "2")
        assert code == 2

    def test_invalid_pattern_warns_but_renders(self, capsys, tmp_path):
        pattern = tmp_path / "bad.json"
        pattern.write_text("[[0, 0]]")
        code, out, err = run(capsys, "render", "U", "--pattern", str(pattern))
        assert code == 0
        assert "mismatched" in err
        assert "X" in out


class TestSpectralCommand:
    def test_omega_report(self, capsys):
        code, out, _ = run(capsys, "spectral", "omega")
        assert code == 0
        assert "primitivity exponent: 7" in out
        assert "1 + phi" in out
        assert out == (DATA / "spectral_omega.txt").read_text()

    def test_omega_report_decides_primitivity_and_iterates_once(self, capsys, monkeypatch):
        calls = {"is_primitive": 0, "power_iteration": 0, "perron": 0}

        def counted(name, fn):
            def wrapper(M):
                calls[name] += 1
                return fn(M)

            return wrapper

        for name in calls:
            if hasattr(spectral, name):
                wrapper = counted(name, getattr(spectral, name))
                monkeypatch.setattr(spectral, name, wrapper)
                monkeypatch.setattr(cli, name, wrapper, raising=False)
        code, out, _ = run(capsys, "spectral", "omega")
        assert code == 0
        assert out == (DATA / "spectral_omega.txt").read_text()
        assert calls == {"is_primitive": 1, "power_iteration": 1, "perron": 0}

    def test_gamma_not_primitive(self, capsys):
        code, out, _ = run(capsys, "spectral", "gamma")
        assert code == 0
        assert "primitivity exponent: None" in out

    def test_sixth_power_of_omega_has_exact_frequencies(self, capsys, tmp_path):
        # Its Perron root phi^12 = 89 + 144*phi lies past a fixed |b| <= 64 search.
        omega = builtin("omega").payload
        m = omega
        for _ in range(5):
            m = compose(omega, m)
        table = tmp_path / "omega6.json"
        table.write_text(json.dumps(m.to_json_table()))
        code, out, _ = run(capsys, "spectral", str(table), "--domain", "U", "--codomain", "U")
        assert code == 0
        assert "exact eigenvalue: 89 + 144*phi" in out
        assert "unavailable" not in out
        assert out == (DATA / "spectral_omega6.txt").read_text()


class TestCorpusExport:
    def test_tileset_roundtrip(self, capsys):
        code, out, _ = run(capsys, "corpus", "export", "U")
        assert code == 0
        assert parse_tileset(out) == builtin("U").payload

    def test_morphism_table(self, capsys):
        code, out, _ = run(capsys, "corpus", "export", "alpha")
        assert code == 0
        assert json.loads(out)["8"] == [[11, 1]]

    def test_unknown_artifact(self, capsys):
        code, _, err = run(capsys, "corpus", "export", "zeta")
        assert code == 2
        assert "valid names" in err


class TestCertify:
    def test_u_auto_passes(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        figures = tmp_path / "figs"
        code, _, _ = run(
            capsys, "certify", "U", "--plan", "auto",
            "--out", str(target), "--figures", str(figures),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["conclusion"] == {
            "selfSimilar": True, "aperiodic": True, "minimal": True,
        }
        assert (figures / "inflation-patch.svg").exists()
        assert (figures / "inflation-patch-stone.svg").exists()

    def test_dual_of_u_passes(self, capsys, tmp_path):
        tiles = tmp_path / "u-dual.tiles"
        tiles.write_text(emit_tileset(builtin("U").payload.dual()))
        code, out, _ = run(capsys, "certify", str(tiles))
        assert code == 0
        assert json.loads(out)["conclusion"] == {
            "selfSimilar": True, "aperiodic": True, "minimal": True,
        }

    def test_periodic_single_tile_fails(self, capsys, tmp_path):
        tiles = tmp_path / "one.tiles"
        tiles.write_text("A B A B\n")
        code, out, _ = run(capsys, "certify", str(tiles))
        assert code == 1
        doc = json.loads(out)
        assert doc["conclusion"]["aperiodic"] is False

    def test_bad_plan(self, capsys):
        code, _, err = run(capsys, "certify", "U", "--plan", "sideways")
        assert code == 2

    def test_negative_plan_radius_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "certify", "V", "--plan", "e1:-1,e2:2")
        assert code == 2
        assert out == ""
        assert "bad plan entry" in err

    def test_unknown_tileset(self, capsys):
        code, _, err = run(capsys, "certify", "Q")
        assert code == 2

    def test_builtin_of_the_wrong_kind_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "omega")
        assert code == 2
        assert "no such tile set" in err
        code, _, err = run(capsys, "spectral", "U")
        assert code == 2
        assert "no such morphism" in err


    def test_v_with_explicit_plan(self, capsys):
        code, out, _ = run(capsys, "certify", "V", "--plan", "e1:1,e2:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"]["aperiodic"] is True


class TestSuiteCommand:
    def test_filtered_run(self, capsys):
        code, out, _ = run(capsys, "suite", "--filter", "spectral")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PASS C08")

    def test_two_filtered_criteria(self, capsys):
        code, out, _ = run(capsys, "suite", "--filter", "prolong")
        assert code == 0
        assert "C11" in out

    def test_filter_matching_nothing_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "suite", "--filter", "zzz")
        assert code == 2
        assert out == ""
        assert err == "error: no acceptance criterion matches 'zzz'\n"

    def test_crashing_criterion_reports_failure(self, capsys, monkeypatch):
        import wangtiles.suite as suite_module

        def boom():
            raise RuntimeError("corrupted data")

        monkeypatch.setattr(
            suite_module, "CRITERIA", [("C99", "broken input", boom)]
        )
        code, out, _ = run(capsys, "suite")
        assert code == 1
        assert "FAIL C99" in out and "corrupted data" in out
