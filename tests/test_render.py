from __future__ import annotations

import hashlib
import importlib.util
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from wangtiles.core import WangTile, WangTileSet, parse_tileset
from wangtiles.corpus import builtin
from wangtiles.morphism import Morphism2d, Word2d, apply, iterate
from wangtiles.render import (
    GeometryError,
    render,
    render_morphism,
    render_svg,
    render_text,
    render_tikz,
    stone_geometry_u,
    stone_render,
)
from wangtiles.spectral import GoldenNumber

U = builtin("U").payload
omega = builtin("omega").payload
GEO = stone_geometry_u()
# Color tokens made of the characters that SVG and TeX treat specially.
SPECIAL = WangTileSet(
    [WangTile("5%", "a_b", "5%", "a_b"), WangTile("{#}", "$^~\\&", "{#}", "$^~\\&")]
)

_RECORDER = Path(__file__).parent / "data" / "record_goldens.py"
_spec = importlib.util.spec_from_file_location("record_goldens", _RECORDER)
recorded = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorded)


@pytest.mark.parametrize("name", sorted(recorded.RENDERS))
def test_render_matches_golden_bytes(name):
    # The recorded bytes are the reference; re-record them only for an
    # intended change of output (see data/record_goldens.py).
    expected = (recorded.DATA / "renders" / name).read_bytes()
    assert recorded.RENDERS[name]().encode("utf-8") == expected


def test_check_mode_passes_on_the_recorded_bytes():
    assert recorded.main(["--check"]) == 0


def test_check_mode_names_what_differs_and_writes_nothing(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    shutil.copytree(recorded.DATA, data)
    renders = data / "renders"
    (renders / "svg_index.svg").write_bytes(b"stale")
    (renders / "tikz_index.tex").unlink()
    monkeypatch.setattr(recorded, "DATA", data)
    assert recorded.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "differs: renders/svg_index.svg" in err and "differs: renders/tikz_index.tex" in err
    assert "differs: renders/svg_colors.svg" not in err
    assert "26 of 28 files match" in err
    assert (renders / "svg_index.svg").read_bytes() == b"stale"
    assert not (renders / "tikz_index.tex").exists()


# SHA-256 of render_text, render_svg, render_tikz and stone_render (at level
# 10) of iterate(omega, a, 10): the largest patches the inflate benchmark
# renders, 89x144 and 144x144 cells.
LEVEL_TEN = {
    8: (
        "6712c02dabc499b35f45f440e6bff4930d199560760d54e3cdcda155614d544b",
        "435293ac7e25297b959d07b09a9ec4b1d2add69183736920bde88b5d9841495f",
        "dffb7afc5052624fe2f0c6d45a80207c908442778ef82e747d2adb765b403841",
        "d188bcd5cd41efce22a695db66147dc575bbffd21fd8480b67e7f6fcb0b08b34",
    ),
    12: (
        "752dbf2867d87504612d1eb1f56a7dee6d36bac6a4749d9d5fd1cec918f282de",
        "2f82900a798a2fc94dcc1ecd39902b3eb5e140982ef02f3ae61e658d2daa8810",
        "2dd6275e05ed5633e8d590c4c72984f911121e76f984fa43ccfd44a7cafddebd",
        "5d6b3ef7eeb9f0b2892b0a78bde52a01d1d4f9f8e6f1de63567f5db2aa66baee",
    ),
}


@pytest.mark.parametrize("a", sorted(LEVEL_TEN))
def test_level_ten_patch_renderings_are_pinned(a):
    w = iterate(omega, a, 10)
    texts = (render_text(U, w), render_svg(U, w), render_tikz(U, w), stone_render(GEO, w, 10))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == LEVEL_TEN[a]


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

    def test_special_tokens_are_escaped(self):
        T = parse_tileset("a&b 1 a&b 1\nx<y 2 x<y 2\n")
        doc = render(T, Word2d(((0, 1), (0, 1))), "svg", "colors")
        texts = [e.text for e in ET.fromstring(doc.encode("utf-8")).iter() if e.tag.endswith("text")]
        assert texts.count("a&b") == 4 and texts.count("x<y") == 4

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

    def test_special_tokens_are_escaped(self):
        doc = render(SPECIAL, Word2d(((0, 1),)), "tikz", "colors")
        assert "\\node at (0.8, 0.5) {5\\%};" in doc
        assert "\\node at (0.5, 0.8) {a\\_b};" in doc
        assert "\\node at (0.8, 1.5) {\\{\\#\\}};" in doc
        top = r"\$\textasciicircum{}\textasciitilde{}\textbackslash{}\&"
        assert f"\\node at (0.5, 1.8) {{{top}}};" in doc

    def test_special_tokens_are_escaped_in_morphism_table(self):
        identity = Morphism2d(SPECIAL, SPECIAL, (Word2d.letter(0), Word2d.letter(1)))
        doc = render_morphism(identity, "tikz")
        assert "\\node at (0.8, 0.5) {5\\%};" in doc
        assert "{5%}" not in doc

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

    @pytest.mark.parametrize("renderer", [
        lambda labels: render_text(U, Word2d.letter(0), labels),
        lambda labels: render_svg(U, Word2d.letter(0), labels),
        lambda labels: render_tikz(U, Word2d.letter(0), labels),
        lambda labels: stone_render(GEO, Word2d.letter(0), None, labels),
    ], ids=["text", "svg", "tikz", "stone"])
    def test_every_renderer_refuses_unknown_labels(self, renderer):
        with pytest.raises(ValueError, match="unknown labels 'names'"):
            renderer("names")


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

    def test_geometry_errors_name_the_first_bad_cell(self):
        cols = [list(c) for c in iterate(omega, 4, 5).columns]
        assert cols[3][1] in range(2, 8) and cols[5][3] in range(12, 19)
        wide, tall = [list(c) for c in cols], [list(c) for c in cols]
        wide[3][1] = 0  # a small square under a wide rectangle's width
        tall[5][3] = 2  # a wide rectangle in a row of unit squares
        both = [list(c) for c in tall]
        both[3][1] = 0
        for bad, message in [
            (wide, "cell (3,1) width differs from cell (3,0)"),
            (tall, "cell (5,3) height differs from cell (0,3)"),
            (both, "cell (3,1) width differs from cell (3,0)"),
            ([[0], [12]], "cell (1,0) height differs from cell (0,0)"),
        ]:
            with pytest.raises(GeometryError) as caught:
                stone_render(GEO, Word2d.from_columns(bad))
            assert str(caught.value) == message

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


@pytest.mark.parametrize("letter", [-1, 19, 300])
def test_letters_outside_the_set_are_a_value_error(letter):
    # A negative letter would wrap to the last tile, and a large one index
    # past the end, if the renderers did not check the range first.
    w = Word2d(((0, 8), (12, letter)))
    message = rf"cell \(1,1\) holds letter {letter}, outside 0\.\.18"
    for draw in (render_text, render_svg, render_tikz):
        with pytest.raises(ValueError, match=message):
            draw(U, w)
    with pytest.raises(ValueError, match=message):
        render(U, w, "svg", "colors")
    with pytest.raises(ValueError, match=message):
        stone_render(GEO, w)
