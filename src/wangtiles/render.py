"""Views of patterns and morphisms: text grids, SVG, TikZ, stone inflation.

All renderers are pure string builders: identical inputs give identical
bytes.  Patterns are drawn in Cartesian orientation (row 0 at the bottom).
Invalid patterns are still rendered, with the offending edges marked.

Each call formats what depends only on a column, a row or a tile once:
coordinates per column and per row, colors and tokens per tile.  The loop
over cells only joins those strings, so a large inflation patch costs little
more than its output.  Nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import WangTileSet, display_token
from .morphism import Morphism2d, Word2d
from .solver import violations
from .spectral import GOLDEN_ONE, GoldenNumber

SVG_CELL = 48.0

_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
    "#000075", "#808080",
)


# The characters that XML text and TeX treat specially, each replaced in one
# pass so that no replacement is escaped again.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_TEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}", "%": r"\%", "#": r"\#", "&": r"\&", "_": r"\_",
    "{": r"\{", "}": r"\}", "$": r"\$", "^": r"\textasciicircum{}", "~": r"\textasciitilde{}",
})


class GeometryError(ValueError):
    """Stone rectangles do not fit together."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _center(s: str, width: int, fill: str) -> str:
    if len(s) >= width:
        return s[:width]
    pad = width - len(s)
    return fill * (pad // 2) + s + fill * (pad - pad // 2)


def render_text(
    T: WangTileSet,
    pattern: Word2d,
    labels: str = "index",
    ascii_only: bool = False,
) -> str:
    """Box grid with edge colors on the borders and optional center indices.

    Horizontal edge colors sit in the horizontal border lines, vertical edge
    colors in the cell rows.  A mismatched shared edge is marked with ``X``.
    """
    n1, n2 = pattern.shape
    rows = list(zip(*pattern.columns))
    # For each row y, the columns x whose edge below or to the west is a mismatch.
    bad_below: list[list[int]] = [[] for _ in range(n2)]
    bad_west: list[list[int]] = [[] for _ in range(n2)]
    for (x, y), (x2, _) in violations(T, pattern):
        if x2 == x + 1:
            bad_west[y].append(x2)
        else:
            bad_below[y + 1].append(x)
    if ascii_only:
        tl = tr = bl = br = tm = bm = lm = rm = mm = "+"
        hbar = "-"
    else:
        tl, tr, bl, br = "┌", "┐", "└", "┘"
        tm, bm, lm, rm, mm = "┬", "┴", "├", "┤", "┼"
        hbar = "─"

    letters = pattern.letters()
    tokens = {t: [display_token(c) for c in T[t].as_tuple()] for t in letters}
    names = {t: str(t) if labels == "index" else "" for t in letters}
    bw = max(max(len(s) for toks in tokens.values() for s in toks), 1)  # vertical border slots
    cw = max(bw, max(len(s) for s in names.values())) + 2

    # Per tile: its centered top and bottom colors, label and west separator.
    top = {t: _center(tokens[t][1], cw, hbar) for t in letters}
    bottom = {t: _center(tokens[t][3], cw, hbar) for t in letters}
    label = {t: _center(names[t], cw, " ") for t in letters}
    west = {t: _center(tokens[t][2], bw, " ") for t in letters}
    mark_h, mark_v = _center("X", cw, hbar), _center("X", bw, " ")

    def border_line(y: int) -> str:
        if y == n2:
            cells = [top[t] for t in rows[n2 - 1]]
            left, mid, right = tl, tm, tr
        else:
            cells = [bottom[t] for t in rows[y]]
            for x in bad_below[y]:
                cells[x] = mark_h
            left, mid, right = (bl, bm, br) if y == 0 else (lm, mm, rm)
        joiner = _center(mid, bw, hbar)
        return left + hbar * (bw - 1) + joiner.join(cells) + hbar * (bw - 1) + right

    def body_line(y: int) -> str:
        row = rows[y]
        seps = [west[t] for t in row[1:]]  # seps[x - 1] lies between columns x - 1 and x
        for x in bad_west[y]:
            seps[x - 1] = mark_v
        return (
            tokens[row[0]][2].ljust(bw)
            + "".join(label[t] + sep for t, sep in zip(row, seps))
            + label[row[-1]]
            + tokens[row[-1]][0].rjust(bw)
        )

    lines = []
    for y in range(n2, -1, -1):
        lines.append(border_line(y))
        if y > 0:
            lines.append(body_line(y - 1))
    return "\n".join(lines) + "\n"


def _palette_for(T: WangTileSet, pattern: Word2d) -> dict[str, str]:
    tokens = sorted({c for t in pattern.letters() for c in T[t].as_tuple()})
    return {tok: _PALETTE[i % len(_PALETTE)] for i, tok in enumerate(tokens)}


def render_svg(T: WangTileSet, pattern: Word2d, labels: str = "index") -> str:
    """SVG 1.1 document; each cell shows four colored edge triangles.

    Every coordinate depends only on a cell's column or its row, so each is
    formatted once per column or row and cells only join those strings.
    """
    n1, n2 = pattern.shape
    colors = _palette_for(T, pattern)
    s = SVG_CELL
    W, H = n1 * s, n2 * s
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(W)}" height="{_fmt(H)}" viewBox="0 0 {_fmt(W)} {_fmt(H)}">',
    ]
    # Near edge, far edge, center, and the two label offsets of each column
    # (left to right) and each row (top of the row down).
    xs = [_svg_span(x * s, s) for x in range(n1)]
    ys = [_svg_span((n2 - 1 - y) * s, s) for y in range(n2)]
    fills = {}
    for a in pattern.letters():
        t = T[a]
        fills[a] = (colors[t.right], colors[t.top], colors[t.left], colors[t.bottom])
    size, centered = _fmt(s), 'text-anchor="middle" dominant-baseline="middle"'
    if labels == "index":
        label_size = _fmt(s / 4)
    else:
        label_size = _fmt(s / 5)
        tokens = {
            a: [display_token(c).translate(_XML_ESCAPES) for c in T[a].as_tuple()] for a in fills
        }
    for column, (x0, x1, cx, x85, x15) in zip(pattern.columns, xs):
        for a, (y0, y1, cy, y85, y15) in zip(column, ys):
            right, top, left, bottom = fills[a]
            out.append(
                f'<polygon points="{x1},{y1} {cx},{cy} {x1},{y0}" fill="{right}" stroke="none"/>\n'
                f'<polygon points="{x0},{y0} {cx},{cy} {x1},{y0}" fill="{top}" stroke="none"/>\n'
                f'<polygon points="{x0},{y1} {cx},{cy} {x0},{y0}" fill="{left}" stroke="none"/>\n'
                f'<polygon points="{x0},{y1} {cx},{cy} {x1},{y1}" fill="{bottom}" stroke="none"/>\n'
                f'<rect x="{x0}" y="{y0}" width="{size}" height="{size}" '
                f'fill="none" stroke="black" stroke-width="1"/>'
            )
            if labels == "index":
                out.append(f'<text x="{cx}" y="{cy}" font-size="{label_size}" {centered}>{a}</text>')
            else:
                right, top, left, bottom = tokens[a]
                out.append(
                    f'<text x="{x85}" y="{cy}" font-size="{label_size}" {centered}>{right}</text>\n'
                    f'<text x="{cx}" y="{y15}" font-size="{label_size}" {centered}>{top}</text>\n'
                    f'<text x="{x15}" y="{cy}" font-size="{label_size}" {centered}>{left}</text>\n'
                    f'<text x="{cx}" y="{y85}" font-size="{label_size}" {centered}>{bottom}</text>'
                )
    for (x1c, y1c), (x2c, y2c) in sorted(violations(T, pattern)):
        if x2c == x1c + 1:  # shared vertical edge
            ex, ey1, ey2 = x2c * s, (n2 - 1 - y1c) * s, (n2 - y1c) * s
            out.append(
                f'<line x1="{_fmt(ex)}" y1="{_fmt(ey1)}" x2="{_fmt(ex)}" y2="{_fmt(ey2)}" '
                f'stroke="red" stroke-width="4"/>'
            )
        else:  # shared horizontal edge
            ey = (n2 - y2c) * s
            out.append(
                f'<line x1="{_fmt(x1c * s)}" y1="{_fmt(ey)}" x2="{_fmt((x1c + 1) * s)}" '
                f'y2="{_fmt(ey)}" stroke="red" stroke-width="4"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_span(v0: float, s: float) -> tuple[str, str, str, str, str]:
    """Formatted v0, v0 + s, v0 + s/2, v0 + 0.85s and v0 + 0.15s."""
    return (_fmt(v0), _fmt(v0 + s), _fmt(v0 + s / 2), _fmt(v0 + 0.85 * s), _fmt(v0 + 0.15 * s))


def render_tikz(T: WangTileSet, pattern: Word2d, labels: str = "index") -> str:
    """Standalone tikzpicture with one unit square per cell."""
    n1, n2 = pattern.shape
    out = ["\\begin{tikzpicture}[scale=1.0]", "\\tikzstyle{every node}=[font=\\tiny]"]
    out.extend(_tikz_cells(T, pattern, [_tikz_span(x) for x in range(n1)],
                           [_tikz_span(y) for y in range(n2)], labels == "index"))
    for (x1c, y1c), (x2c, y2c) in sorted(violations(T, pattern)):
        if x2c == x1c + 1:
            out.append(f"\\draw[red, very thick] ({x2c}, {y1c}) -- ({x2c}, {y1c + 1});")
        else:
            out.append(f"\\draw[red, very thick] ({x1c}, {y2c}) -- ({x1c + 1}, {y2c});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render(
    T: WangTileSet,
    pattern: Word2d,
    format: str = "text",
    labels: str = "index",
    ascii_only: bool = False,
) -> str:
    if labels not in ("index", "colors"):
        raise ValueError(f"unknown labels {labels!r}")
    if format == "text":
        return render_text(T, pattern, labels, ascii_only)
    if format == "svg":
        return render_svg(T, pattern, labels)
    if format == "tikz":
        return render_tikz(T, pattern, labels)
    raise ValueError(f"unknown format {format!r}")


def _tikz_span(v: int) -> tuple[str, str, str, str, str]:
    """Integer coordinates v, v + 1, v.5, v.8 and v.2 as render_tikz writes them."""
    return (f"{v}", f"{v + 1}", f"{v}.5", f"{v}.8", f"{v}.2")


def _tikz_offset_span(v: float) -> tuple[str, str, str, str, str]:
    """Float coordinates v, v + 1, v + 0.5, v + 0.8 and v + 0.2 of a morphism table."""
    return (f"{v}", f"{v + 1}", f"{v + 0.5}", f"{v + 0.8}", f"{v + 0.2}")


def _tikz_cells(
    T: WangTileSet,
    pattern: Word2d,
    xs: list[tuple[str, ...]],
    ys: list[tuple[str, ...]],
    index: bool,
) -> list[str]:
    """A rectangle and its four edge colors per cell, from formatted column and row spans."""
    tokens = {
        a: [display_token(c).translate(_TEX_ESCAPES) for c in T[a].as_tuple()]
        for a in pattern.letters()
    }
    out = []
    for column, (x0, x1, cx, x8, x2) in zip(pattern.columns, xs):
        for a, (y0, y1, cy, y8, y2) in zip(column, ys):
            right, top, left, bottom = tokens[a]
            out.append(f"\\draw ({x0}, {y0}) rectangle ({x1}, {y1});")
            if index:
                out.append(f"\\node at ({cx}, {cy}) {{{a}}};")
            out.append(
                f"\\node at ({x8}, {cy}) {{{right}}};\n"
                f"\\node at ({cx}, {y8}) {{{top}}};\n"
                f"\\node at ({x2}, {cy}) {{{left}}};\n"
                f"\\node at ({cx}, {y2}) {{{bottom}}};"
            )
    return out


def render_morphism(m: Morphism2d, format: str = "text") -> str:
    """A letter -> image table, one mapping per block."""
    parts = []
    for a in range(len(m.domain)):
        im = m.images[a]
        if format == "text":
            block = render_text(m.domain, Word2d.letter(a), "index")
            image = render_text(m.codomain, im, "index")
            lhs, rhs = block.splitlines(), image.splitlines()
            height = max(len(lhs), len(rhs))
            lhs = [""] * (height - len(lhs)) + lhs
            rhs = [""] * (height - len(rhs)) + rhs
            width = max(len(l) for l in lhs)
            mid = height // 2
            for i in range(height):
                arrow = " -> " if i == mid else "    "
                parts.append(f"{lhs[i]:<{width}}{arrow}{rhs[i]}")
            parts.append("")
        elif format == "tikz":
            n1, n2 = im.shape
            origin = [_tikz_offset_span(0.0)]
            parts.append(f"% letter {a}")
            parts.append("\\begin{tikzpicture}[scale=0.9]")
            parts.append("\\tikzstyle{every node}=[font=\\tiny]")
            parts.extend(_tikz_cells(m.domain, Word2d.letter(a), origin, origin, True))
            parts.append("\\node at (1.5, 0.5) {$\\mapsto$};")
            xs = [_tikz_offset_span(2.0 + x) for x in range(n1)]
            ys = [_tikz_offset_span(float(y)) for y in range(n2)]
            parts.extend(_tikz_cells(m.codomain, im, xs, ys, True))
            parts.append("\\end{tikzpicture}")
        else:
            raise ValueError(f"unknown morphism format {format!r}")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class StoneGeometry:
    """Per-tile rectangle sizes in Z[phi]; inflation scales them by phi.

    widths[i] and heights[i] are the exact dimensions of tile i's rectangle.
    """

    widths: tuple[GoldenNumber, ...]
    heights: tuple[GoldenNumber, ...]

    def area(self, i: int) -> GoldenNumber:
        return self.widths[i] * self.heights[i]


PHI_INV = GoldenNumber(-1, 1)  # 1/phi = phi - 1


def stone_geometry_u() -> StoneGeometry:
    """Rectangle classes of the built-in 19-tile set.

    Short edges measure 1/phi, long edges 1: tiles 0..1 are small squares,
    2..7 wide rectangles, 8..11 tall rectangles, 12..18 unit squares.
    """
    widths = []
    heights = []
    for i in range(19):
        widths.append(PHI_INV if i in (0, 1, 8, 9, 10, 11) else GOLDEN_ONE)
        heights.append(PHI_INV if i in (0, 1, 2, 3, 4, 5, 6, 7) else GOLDEN_ONE)
    return StoneGeometry(tuple(widths), tuple(heights))


def stone_render(
    geometry: StoneGeometry,
    pattern: Word2d,
    level: Optional[int] = None,
    labels: str = "index",
) -> str:
    """SVG of the pattern with every tile drawn at its real rectangle size.

    Column widths and row heights are accumulated exactly in Z[phi] and
    converted to floats only when written out.  All tiles of a column must
    share a width and all tiles of a row a height, which holds for patterns
    produced by inflation; otherwise a GeometryError names the first bad
    cell.
    """
    col_w: list[GoldenNumber] = []
    row_h: list[GoldenNumber] = []
    for x, column in enumerate(pattern.columns):
        y = _first_mismatch(geometry.widths, column)
        if y is not None:
            raise GeometryError(f"cell ({x},{y}) width differs from cell ({x},0)")
        col_w.append(geometry.widths[column[0]])
    for y, row in enumerate(zip(*pattern.columns)):
        x = _first_mismatch(geometry.heights, row)
        if x is not None:
            raise GeometryError(f"cell ({x},{y}) height differs from cell (0,{y})")
        row_h.append(geometry.heights[row[0]])

    xs = [GoldenNumber(0, 0)]
    for w in col_w:
        xs.append(xs[-1] + w)
    ys = [GoldenNumber(0, 0)]
    for h in row_h:
        ys.append(ys[-1] + h)
    total_w, total_h = float(xs[-1]), float(ys[-1])

    scale = 64.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(total_w * scale)}" height="{_fmt(total_h * scale)}" '
        f'viewBox="0 0 {_fmt(total_w * scale)} {_fmt(total_h * scale)}">',
    ]
    if level is not None:
        out.append(f"<!-- inflation level {level} -->")
    # Position, size and center of each column and each row, as floats and as text.
    cols = [(float(xs[x]) * scale, float(w) * scale) for x, w in enumerate(col_w)]
    rows = [((total_h - float(ys[y + 1])) * scale, float(h) * scale) for y, h in enumerate(row_h)]
    col_text = [(_fmt(px), _fmt(pw), _fmt(px + pw / 2), pw) for px, pw in cols]
    row_text = [(_fmt(py), _fmt(ph), _fmt(py + ph / 2), ph) for py, ph in rows]
    widths, heights = {pw for _, pw in cols}, {ph for _, ph in rows}
    font = {(pw, ph): _fmt(min(pw, ph) / 3) for pw in widths for ph in heights}
    for column, (px, pw, cx, w) in zip(pattern.columns, col_text):
        for a, (py, ph, cy, h) in zip(column, row_text):
            out.append(
                f'<rect x="{px}" y="{py}" width="{pw}" '
                f'height="{ph}" fill="none" stroke="black" stroke-width="1"/>'
            )
            if labels == "index":
                out.append(
                    f'<text x="{cx}" y="{cy}" '
                    f'font-size="{font[w, h]}" text-anchor="middle" '
                    f'dominant-baseline="middle">{a}</text>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _first_mismatch(sizes: tuple[GoldenNumber, ...], line: tuple[int, ...]) -> Optional[int]:
    """Position of the first tile in the line whose size differs from the first tile's."""
    first = sizes[line[0]]
    odd = {a for a in set(line) if sizes[a] != first}
    return next((i for i, a in enumerate(line) if a in odd), None) if odd else None
