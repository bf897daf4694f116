from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from wangtiles.corpus import builtin
from wangtiles.morphism import Word2d, apply, iterate
from wangtiles.render import (
    GeometryError,
    render,
    render_morphism,
    stone_geometry_u,
    stone_render,
)
from wangtiles.spectral import GoldenNumber

U = builtin("U").payload
omega = builtin("omega").payload
GEO = stone_geometry_u()

_RECORDER = Path(__file__).parent / "data" / "record_renders.py"
_spec = importlib.util.spec_from_file_location("record_renders", _RECORDER)
recorded = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorded)


@pytest.mark.parametrize("name", sorted(recorded.CASES))
def test_render_matches_golden_bytes(name):
    # The recorded bytes are the reference; re-record them only for an
    # intended change of output (see data/record_renders.py).
    expected = (recorded.RENDERS / name).read_bytes()
    assert recorded.CASES[name]().encode("utf-8") == expected


class TestTextRender:
    def test_single_tile_is_three_lines_with_colors(self):
        doc = render(U, Word2d.letter(0), "text", "colors")
        lines = doc.strip("\n").split("\n")
        assert len(lines) == 3
        assert "O" in lines[0]          # top
        assert lines[1].startswith("J") # left
        assert lines[1].endswith("F")   # right
        assert "O" in lines[2]          # bottom

    def test_index_labels(self):
        doc = render(U, Word2d.letter(18), "text", "index")
        assert "18" in doc

    def test_ascii_fallback(self):
        doc = render(U, Word2d.letter(0), "text", "colors", ascii_only=True)
        assert set(doc) <= set("+-| OJF\n")

    def test_invalid_edges_are_marked(self):
        bad = Word2d(((0,), (0,)))  # right F against left J
        doc = render(U, bad, "text")
        assert "X" in doc

    def test_grid_rows_cartesian(self):
        w = apply(omega, Word2d.letter(16))  # bottom row 18,10 / top row 5,1
        doc = render(U, w, "text")
        top_row, bottom_row = doc.split("\n")[1], doc.split("\n")[3]
        assert "5" in top_row and "1" in top_row
        assert "18" in bottom_row and "10" in bottom_row

    def test_multichar_tokens_stay_aligned(self):
        W = builtin("W").payload
        doc = render(W, Word2d(((4,), (5,))), "text", "colors")
        lines = doc.strip("\n").split("\n")
        assert len({len(line) for line in lines}) == 1
        assert "KO" in lines[0]


class TestSvgRender:
    def test_basic_document(self):
        doc = render(U, iterate(omega, 4, 2), "svg")
        assert doc.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in doc
        assert doc.rstrip().endswith("</svg>")

    def test_deterministic_bytes(self):
        w = iterate(omega, 4, 3)
        assert render(U, w, "svg") == render(U, w, "svg")
        assert render(U, w, "text") == render(U, w, "text")
        assert render(U, w, "tikz") == render(U, w, "tikz")

    def test_violations_marked_in_red(self):
        bad = Word2d(((0,), (0,)))
        assert 'stroke="red"' in render(U, bad, "svg")

    def test_full_inflation_patch_document(self):
        doc = render(U, iterate(omega, 4, 5), "svg")
        assert doc.count("<rect ") == 13 * 8
        assert 'stroke="red"' not in doc


class TestTikzRender:
    def test_structure(self):
        doc = render(U, Word2d.letter(0), "tikz", "colors")
        assert doc.startswith("\\begin{tikzpicture}")
        assert doc.rstrip().endswith("\\end{tikzpicture}")
        assert "rectangle" in doc

    def test_morphism_table(self):
        doc = render_morphism(omega, "tikz")
        assert doc.count("% letter") == 19
        assert doc.count("$\\mapsto$") == 19

    def test_morphism_text_table(self):
        doc = render_morphism(omega, "text")
        assert "->" in doc


class TestArgumentErrors:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(U, Word2d.letter(0), "png")

    def test_unknown_labels(self):
        with pytest.raises(ValueError):
            render(U, Word2d.letter(0), "text", "names")


class TestStone:
    def test_tile_rectangle_classes(self):
        phi_inv = GoldenNumber(-1, 1)
        one = GoldenNumber(1, 0)
        assert (GEO.widths[0], GEO.heights[0]) == (phi_inv, phi_inv)
        assert (GEO.widths[2], GEO.heights[2]) == (one, phi_inv)
        assert (GEO.widths[8], GEO.heights[8]) == (phi_inv, one)
        assert (GEO.widths[12], GEO.heights[12]) == (one, one)

    def test_area_conservation_exact(self):
        phi2 = GoldenNumber(1, 1)
        for i in range(19):
            total = GoldenNumber(0, 0)
            for col in omega.images[i].columns:
                for a in col:
                    total = total + GEO.area(a)
            assert total == phi2 * GEO.area(i)

    def test_image_of_unit_square_is_phi_square(self):
        doc = stone_render(GEO, apply(omega, Word2d.letter(12)), level=1)
        phi = float(GoldenNumber(0, 1))
        assert f'width="{64 * phi:.12g}"' in doc

    def test_single_small_square(self):
        doc = stone_render(GEO, Word2d.letter(0))
        phi_inv = float(GoldenNumber(-1, 1))
        assert f'width="{64 * phi_inv:.12g}"' in doc

    def test_mismatched_column_width_raises(self):
        bad = Word2d(((0, 2),))  # narrow tile under a wide tile
        with pytest.raises(GeometryError, match=r"\(0,1\)"):
            stone_render(GEO, bad)

    def test_deterministic(self):
        w = iterate(omega, 4, 3)
        assert stone_render(GEO, w, 3) == stone_render(GEO, w, 3)

    def test_nested_inflations_share_corner_layout(self):
        # Row heights of the inflated pattern follow the tile classes.
        w = iterate(omega, 12, 2)
        doc = stone_render(GEO, w, 2)
        assert "<!-- inflation level 2 -->" in doc

    def test_every_admissible_pattern_renders(self):
        # Valid patterns always have consistent column widths and row
        # heights: vertically adjacent tiles share a width class and
        # horizontally adjacent ones a height class.
        from wangtiles.solver import patterns_with_surrounding

        for p in patterns_with_surrounding(U, (2, 2), 1):
            assert stone_render(GEO, p).startswith("<?xml")
        assert stone_render(GEO, iterate(omega, 4, 5), 5)
