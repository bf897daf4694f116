"""Record the golden render bytes that tests/test_render.py compares against.

Run from the root of the repository, at the commit whose bytes are the
reference:

    PYTHONPATH=src python3 tests/data/record_renders.py

It writes one file per case in CASES to tests/data/renders/.  The cases
cover the renderer paths that the benchmark's inflate hashes miss: text in
unicode and ASCII, color labels, violations on both axes, multi-character
tokens, the morphism table, and the stone view without a level or with
color labels.
"""

from __future__ import annotations

import sys
from pathlib import Path

from wangtiles.corpus import builtin
from wangtiles.morphism import Word2d, iterate
from wangtiles.render import (
    render_morphism,
    render_svg,
    render_text,
    render_tikz,
    stone_geometry_u,
    stone_render,
)

RENDERS = Path(__file__).with_name("renders")

U = builtin("U").payload
W = builtin("W").payload
omega = builtin("omega").payload
GEO = stone_geometry_u()
PATCH = iterate(omega, 4, 4)
# Two violations along axis 1 and two along axis 2.
BAD = Word2d(((0, 0, 3), (0, 5, 7)))
# Tiles of W whose top and bottom colors are two-character tokens.
MULTI = Word2d(((2, 4, 6), (3, 5, 7)))

CASES = {
    "text_index_unicode.txt": lambda: render_text(U, PATCH),
    "text_colors_unicode.txt": lambda: render_text(U, PATCH, "colors"),
    "text_index_ascii.txt": lambda: render_text(U, PATCH, ascii_only=True),
    "text_colors_ascii.txt": lambda: render_text(U, PATCH, "colors", ascii_only=True),
    "svg_colors.svg": lambda: render_svg(U, PATCH, "colors"),
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
    "stone_no_level.svg": lambda: stone_render(GEO, PATCH),
    "stone_colors.svg": lambda: stone_render(GEO, PATCH, 4, "colors"),
}


def main() -> int:
    RENDERS.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (RENDERS / name).write_bytes(make().encode("utf-8"))
    print(f"wrote {len(CASES)} files to {RENDERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
