"""Record the golden files that the tests compare against.

Run from the root of the repository, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 tests/data/record_goldens.py

It writes one file per case to tests/data/, from one table per kind:

- CERTIFICATES: certificates without their wall-clock timestamps, and
  fallback_U_auto_e1-first.json: U's certificate under the auto plan with e1
  tried before e2, together with the number of derive() calls that run made
  (tests/test_certify.py);
- RENDERS, under renders/: every renderer path, that is text in unicode and
  ASCII, index and color labels, violations on both axes, multi-character
  tokens, the morphism table, and the stone view with and without a level
  and labels (tests/test_render.py);
- SPECTRAL: the ``wangtiles spectral`` reports on omega and on omega^6
  (tests/test_cli.py);
- TRANSCRIPTS, all in cli_transcripts.json: for each command line, the exit
  code, stdout and first line of stderr of ``wangtiles``, with certificate
  timestamps and suite timings blanked.

With ``--check`` it writes nothing, compares every file with what this tree
computes, and exits 1 naming the files that differ:

    PYTHONPATH=src python3 tests/data/record_goldens.py --check
"""

from __future__ import annotations

import importlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wangtiles import cli
from wangtiles.corpus import builtin
from wangtiles.morphism import Word2d, compose, incidence_matrix, iterate
from wangtiles.render import (
    render_morphism,
    render_svg,
    render_text,
    render_tikz,
    stone_geometry_u,
    stone_render,
)
from wangtiles.spectral import spectral_report

# The package exports the certify function under the module's name.
certify_module = importlib.import_module("wangtiles.certify")

DATA = Path(__file__).parent

U = builtin("U").payload
W = builtin("W").payload
omega = builtin("omega").payload
GEO = stone_geometry_u()
PATCH = iterate(omega, 4, 4)
# Two violations along axis 1 and two along axis 2.
BAD = Word2d(((0, 0, 3), (0, 5, 7)))
# Tiles of W whose top and bottom colors are two-character tokens.
MULTI = Word2d(((2, 4, 6), (3, 5, 7)))


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _certificate(name: str, plan) -> dict:
    doc = json.loads(certify_module.certify(builtin(name).payload, name, plan).to_json())
    del doc["timestamps"]
    return doc


def _e1_first() -> dict:
    """U under auto with e1 tried first, and the derive() calls it made."""
    calls = 0
    real_derive, real_directions = certify_module.derive, certify_module.AUTO_DIRECTIONS

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_derive(*args, **kwargs)

    certify_module.derive, certify_module.AUTO_DIRECTIONS = counted, (1, 2)
    try:
        doc = _certificate("U", "auto")
    finally:
        certify_module.derive, certify_module.AUTO_DIRECTIONS = real_derive, real_directions
    return {"certificate": doc, "deriveCalls": calls}


def _omega_power(k: int):
    m = omega
    for _ in range(k - 1):
        m = compose(omega, m)
    return m


CERTIFICATES = {
    "certificate_U_auto.json": lambda: _dumps(_certificate("U", "auto")),
    "certificate_V_e1-1_e2-2.json": lambda: _dumps(_certificate("V", [(1, 1), (2, 2)])),
    "certificate_W_auto.json": lambda: _dumps(_certificate("W", "auto")),
    "fallback_U_auto_e1-first.json": lambda: _dumps(_e1_first()),
}

RENDERS = {
    "text_index_unicode.txt": lambda: render_text(U, PATCH),
    "text_colors_unicode.txt": lambda: render_text(U, PATCH, "colors"),
    "text_index_ascii.txt": lambda: render_text(U, PATCH, ascii_only=True),
    "text_colors_ascii.txt": lambda: render_text(U, PATCH, "colors", ascii_only=True),
    "svg_index.svg": lambda: render_svg(U, PATCH),
    "svg_colors.svg": lambda: render_svg(U, PATCH, "colors"),
    "tikz_index.tex": lambda: render_tikz(U, PATCH),
    "tikz_colors.tex": lambda: render_tikz(U, PATCH, "colors"),
    "bad_text_index.txt": lambda: render_text(U, BAD),
    "bad_text_colors_ascii.txt": lambda: render_text(U, BAD, "colors", ascii_only=True),
    "bad_svg_index.svg": lambda: render_svg(U, BAD),
    "bad_svg_colors.svg": lambda: render_svg(U, BAD, "colors"),
    "bad_tikz_index.tex": lambda: render_tikz(U, BAD),
    "multi_text_colors.txt": lambda: render_text(W, MULTI, "colors"),
    "multi_text_index_ascii.txt": lambda: render_text(W, MULTI, ascii_only=True),
    "multi_svg_colors.svg": lambda: render_svg(W, MULTI, "colors"),
    "multi_tikz_colors.tex": lambda: render_tikz(W, MULTI, "colors"),
    "morphism_omega.txt": lambda: render_morphism(omega, "text"),
    "morphism_omega.tex": lambda: render_morphism(omega, "tikz"),
    "stone_index_level.svg": lambda: stone_render(GEO, PATCH, 4),
    "stone_no_level.svg": lambda: stone_render(GEO, PATCH),
    "stone_colors.svg": lambda: stone_render(GEO, PATCH, 4, "colors"),
}

SPECTRAL = {
    "spectral_omega.txt": lambda: spectral_report(incidence_matrix(omega)),
    "spectral_omega6.txt": lambda: spectral_report(incidence_matrix(_omega_power(6))),
}


# One case per command line: every subcommand's usual output, each exit-1
# case a subcommand has, and one exit-2 case per subcommand.
TRANSCRIPTS = [
    "dominoes U --dir 1 --radius 1",
    "dominoes U --dir 2 --radius 2",
    "dominoes V --dir 1 --radius 1 --json",
    "dominoes U --dir 2 --radius -1",
    "patterns U --shape 2x2 --radius 1",
    "patterns W --shape 1x2 --radius 1",
    "patterns U --shape two",
    "markers U --dir 2 --radius 2",
    "markers V --dir 1 --radius 1",
    "markers W --dir 2 --radius 2",
    "markers V --dir 1 --radius 1 --verify 0,1,3,8,9,14,15",
    "markers U --dir 1 --radius 1 --verify 0,1",
    "markers U --dir 1 --verify 99",
    "derive U --dir 2 --radius 2",
    "derive V --dir 1 --radius 1 --markers 0,1,3,8,9,14,15",
    "derive U --dir 1 --radius 1 --markers 0,1",
    "derive Q --dir 1",
    "iterate omega 0 4",
    "iterate omega 8 3",
    "iterate omega 0 -1",
    "iterate zeta 0 1",
    "render U --letter 0",
    "render W --letter 5 --labels colors --ascii",
    "render U",
    "spectral gamma",
    "spectral U",
    "corpus export U",
    "corpus export W",
    "corpus export alpha",
    "corpus export beta",
    "corpus export gamma",
    "corpus export omega",
    "corpus export zeta",
    "certify U --plan e2:2,e2:2",
    "certify U --plan sideways",
    "suite",
    "suite --filter spectral --out no/such/directory/report.txt",
    "suite --filter zzz",
]
TRANSCRIPTS_FILE = "cli_transcripts.json"


def _transcript(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(line.split())
    stdout = re.sub(r'"(started|finished)": "[^"]*"', r'"\1": ""', out.getvalue())
    stdout = re.sub(r" \([0-9.]+s\)$", "", stdout, flags=re.M)
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue().partition("\n")[0]}


def _documents() -> dict:
    """Each golden file's path under DATA and a function computing its text."""
    return {
        **CERTIFICATES,
        **{f"renders/{name}": make for name, make in RENDERS.items()},
        **SPECTRAL,
    }


def main(argv: list[str]) -> int:
    docs = _documents()
    if argv == ["--check"]:
        differ = [
            path for path, make in docs.items()
            if not (DATA / path).is_file() or (DATA / path).read_bytes() != make().encode("utf-8")
        ]
        path = DATA / TRANSCRIPTS_FILE
        recorded = json.loads(path.read_text()) if path.is_file() else {}
        changed = [line for line in TRANSCRIPTS if recorded.get(line) != _transcript(line)]
        for path in differ:
            print(f"differs: {path}", file=sys.stderr)
        for line in changed:
            print(f"differs: transcript of {line!r}", file=sys.stderr)
        print(f"{len(docs) - len(differ)} of {len(docs)} files match", file=sys.stderr)
        print(
            f"{len(TRANSCRIPTS) - len(changed)} of {len(TRANSCRIPTS)} transcripts match",
            file=sys.stderr,
        )
        return 1 if differ or changed else 0
    if argv:
        print("usage: record_goldens.py [--check]", file=sys.stderr)
        return 2
    for path, make in docs.items():
        (DATA / path).parent.mkdir(exist_ok=True)
        (DATA / path).write_bytes(make().encode("utf-8"))
    transcripts = {line: _transcript(line) for line in TRANSCRIPTS}
    (DATA / TRANSCRIPTS_FILE).write_text(json.dumps(transcripts, indent=2) + "\n")
    print(f"wrote {len(docs)} files and {len(transcripts)} transcripts to {DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
