"""Views of patterns and morphisms: text grids, SVG, TikZ, stone inflation.

All renderers are pure string builders: identical inputs give identical
bytes.  Patterns are drawn in Cartesian orientation (row 0 at the bottom).
Invalid patterns are still rendered, with the offending edges marked.

Each call formats what depends only on a column, a row or a tile once:
coordinates per column and per row, each with the separators around it, and
per tile its fills, label and tokens with the fixed text that follows them.
A cell is then one f-string over those pieces, and the document one join
whose last item already ends in the closing tag and newline, so a large
inflation patch costs little more than its output.  Nothing is cached
across calls.
"""

from __future__ import annotations

from typing import Optional

from .core import Frozen, WangTileSet, display_token
from .morphism import Morphism2d, Word2d
from .solver import column_bytes, violations
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


def _check_labels(labels: str) -> None:
    if labels not in ("index", "colors"):
        raise ValueError(f"unknown labels {labels!r}")


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
    _check_labels(labels)
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

    # Per tile: its centered top and bottom colors, its label, and its west
    # separator followed by its label, the text between two labels' starts.
    top = {t: _center(tokens[t][1], cw, hbar) for t in letters}
    bottom = {t: _center(tokens[t][3], cw, hbar) for t in letters}
    label = {t: _center(names[t], cw, " ") for t in letters}
    body = {t: _center(tokens[t][2], bw, " ") + label[t] for t in letters}
    mark_h, mark_v = _center("X", cw, hbar), _center("X", bw, " ")
    end = hbar * (bw - 1)

    def border_line(y: int) -> str:
        if y == n2:
            cells = list(map(top.__getitem__, rows[n2 - 1]))
            left, mid, right = tl, tm, tr
        else:
            cells = list(map(bottom.__getitem__, rows[y]))
            for x in bad_below[y]:
                cells[x] = mark_h
            left, mid, right = (bl, bm, br) if y == 0 else (lm, mm, rm)
        return left + end + _center(mid, bw, hbar).join(cells) + end + right

    def body_line(y: int) -> str:
        row = rows[y]
        cells = list(map(body.__getitem__, row))  # cells[0] is replaced by the west border
        cells[0] = tokens[row[0]][2].ljust(bw) + label[row[0]]
        for x in bad_west[y]:
            cells[x] = mark_v + label[row[x]]
        cells.append(tokens[row[-1]][0].rjust(bw))
        return "".join(cells)

    lines = []
    for y in range(n2, 0, -1):
        lines.append(border_line(y))
        lines.append(body_line(y - 1))
    lines.append(border_line(0) + "\n")
    return "\n".join(lines)


def _palette_for(T: WangTileSet, letters: set[int]) -> dict[str, str]:
    tokens = sorted({c for t in letters for c in T[t].as_tuple()})
    return {tok: _PALETTE[i % len(_PALETTE)] for i, tok in enumerate(tokens)}


def render_svg(T: WangTileSet, pattern: Word2d, labels: str = "index") -> str:
    """SVG 1.1 document; each cell shows four colored edge triangles.

    Every coordinate depends only on a cell's column or its row, and every
    fill and label only on its tile, so each is formatted once per column,
    row or tile, and a cell is one f-string that interleaves them.
    """
    _check_labels(labels)
    bad = sorted(violations(T, pattern))
    n1, n2 = pattern.shape
    letters = pattern.letters()
    colors = _palette_for(T, letters)
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
    # A cell alternates pieces fixed per column, per row and per tile.  What
    # follows each edge triangle's last point depends only on the tile: its
    # fill, then the next triangle or, after the bottom one, the outline.
    fills = {}
    for a in letters:
        right, top, left, bottom = (colors[c] for c in T[a].as_tuple())
        fills[a] = (
            f'" fill="{right}" stroke="none"/>\n<polygon points="',
            f'" fill="{top}" stroke="none"/>\n<polygon points="',
            f'" fill="{left}" stroke="none"/>\n<polygon points="',
            f'" fill="{bottom}" stroke="none"/>\n<rect x="',
        )
    size, centered = _fmt(s), 'text-anchor="middle" dominant-baseline="middle"'
    outline = f'" width="{size}" height="{size}" fill="none" stroke="black" stroke-width="1"/>\n<text x="'
    if labels == "index":
        label_size = _fmt(s / 4)
        tails = {a: (*fills[a], f'" font-size="{label_size}" {centered}>{a}</text>') for a in letters}
        for column, (x0, x1, cx, _, _) in zip(pattern.columns, xs):
            # The column's coordinates with the separators around them.
            first, cx_, x1_, x0_ = f'<polygon points="{x1},', f' {cx},', f' {x1},', f' {x0},'
            x0c, at, mid = f'{x0},', f'{x0}" y="', f'{outline}{cx}" y="'
            out += [
                f'{first}{y1}{cx_}{cy}{x1_}{y0}{r}'
                f'{x0c}{y0}{cx_}{cy}{x1_}{y0}{t}'
                f'{x0c}{y1}{cx_}{cy}{x0_}{y0}{l}'
                f'{x0c}{y1}{cx_}{cy}{x1_}{y1}{b}'
                f'{at}{y0}{mid}{cy}{name}'
                for (r, t, l, b, name), (y0, y1, cy, _, _) in zip(map(tails.__getitem__, column), ys)
            ]
    else:
        label_size = _fmt(s / 5)
        tails = {}
        for a in letters:
            right, top, left, bottom = (
                display_token(c).translate(_XML_ESCAPES) for c in T[a].as_tuple()
            )
            tails[a] = (
                *fills[a],
                f'" font-size="{label_size}" {centered}>{right}</text>\n<text x="',
                f'" font-size="{label_size}" {centered}>{top}</text>\n<text x="',
                f'" font-size="{label_size}" {centered}>{left}</text>\n<text x="',
                f'" font-size="{label_size}" {centered}>{bottom}</text>',
            )
        for column, (x0, x1, cx, x85, x15) in zip(pattern.columns, xs):
            first, cx_, x1_, x0_ = f'<polygon points="{x1},', f' {cx},', f' {x1},', f' {x0},'
            x0c, at, mid = f'{x0},', f'{x0}" y="', f'{outline}{x85}" y="'
            cx_at, x15_at = f'{cx}" y="', f'{x15}" y="'
            out += [
                f'{first}{y1}{cx_}{cy}{x1_}{y0}{r}'
                f'{x0c}{y0}{cx_}{cy}{x1_}{y0}{t}'
                f'{x0c}{y1}{cx_}{cy}{x0_}{y0}{l}'
                f'{x0c}{y1}{cx_}{cy}{x1_}{y1}{b}'
                f'{at}{y0}{mid}{cy}{tr}{cx_at}{y15}{tt}{x15_at}{cy}{tl}{cx_at}{y85}{tb}'
                for (r, t, l, b, tr, tt, tl, tb), (y0, y1, cy, y85, y15)
                in zip(map(tails.__getitem__, column), ys)
            ]
    for (x1c, y1c), (x2c, y2c) in bad:
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
    out.append("</svg>\n")
    return "\n".join(out)


def _svg_span(v0: float, s: float) -> tuple[str, str, str, str, str]:
    """Formatted v0, v0 + s, v0 + s/2, v0 + 0.85s and v0 + 0.15s."""
    return (_fmt(v0), _fmt(v0 + s), _fmt(v0 + s / 2), _fmt(v0 + 0.85 * s), _fmt(v0 + 0.15 * s))


def render_tikz(T: WangTileSet, pattern: Word2d, labels: str = "index") -> str:
    """Standalone tikzpicture with one unit square per cell."""
    _check_labels(labels)
    bad = sorted(violations(T, pattern))
    n1, n2 = pattern.shape
    out = ["\\begin{tikzpicture}[scale=1.0]", "\\tikzstyle{every node}=[font=\\tiny]"]
    out += _tikz_cells(T, pattern, [_tikz_span(x) for x in range(n1)],
                       [_tikz_span(y) for y in range(n2)], labels == "index")
    for (x1c, y1c), (x2c, y2c) in bad:
        if x2c == x1c + 1:
            out.append(f"\\draw[red, very thick] ({x2c}, {y1c}) -- ({x2c}, {y1c + 1});")
        else:
            out.append(f"\\draw[red, very thick] ({x1c}, {y2c}) -- ({x1c + 1}, {y2c});")
    out.append("\\end{tikzpicture}\n")
    return "\n".join(out)


def render(
    T: WangTileSet,
    pattern: Word2d,
    format: str = "text",
    labels: str = "index",
    ascii_only: bool = False,
) -> str:
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
    """A rectangle and its four edge colors per cell, from formatted column and row spans.

    Each cell is one string.  What follows a node's coordinates depends only
    on the tile: its escaped token, and the start of the next node.
    """
    tails = {}
    for a in pattern.letters():
        right, top, left, bottom = (
            display_token(c).translate(_TEX_ESCAPES) for c in T[a].as_tuple()
        )
        tails[a] = (
            f") {{{a}}};\n\\node at (",
            f") {{{right}}};\n\\node at (",
            f") {{{top}}};\n\\node at (",
            f") {{{left}}};\n\\node at (",
            f") {{{bottom}}};",
        )
    out: list[str] = []
    for column, (x0, x1, cx, x8, x2) in zip(pattern.columns, xs):
        # The column's coordinates, each with the text up to the next row coordinate.
        draw, rect, cxc, x8c, x2c = f"\\draw ({x0}, ", f") rectangle ({x1}, ", f"{cx}, ", f"{x8}, ", f"{x2}, "
        if index:
            node = f");\n\\node at ({cx}, "
            out += [
                f"{draw}{y0}{rect}{y1}{node}{cy}{name}{x8c}{cy}{r}{cxc}{y8}{t}{x2c}{cy}{l}{cxc}{y2}{b}"
                for (name, r, t, l, b), (y0, y1, cy, y8, y2) in zip(map(tails.__getitem__, column), ys)
            ]
        else:
            node = f");\n\\node at ({x8}, "
            out += [
                f"{draw}{y0}{rect}{y1}{node}{cy}{r}{cxc}{y8}{t}{x2c}{cy}{l}{cxc}{y2}{b}"
                for (_, r, t, l, b), (y0, y1, cy, y8, y2) in zip(map(tails.__getitem__, column), ys)
            ]
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


class StoneGeometry(Frozen):
    """Per-tile rectangle sizes in Z[phi]; inflation scales them by phi.

    widths[i] and heights[i] are the exact dimensions of tile i's rectangle.
    Equality and hashing go by (widths, heights).
    """

    __slots__ = _fields = ("widths", "heights")

    def __init__(self, widths: tuple[GoldenNumber, ...], heights: tuple[GoldenNumber, ...]):
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "heights", heights)

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
    cell, as a ValueError names the first letter that has no size.
    """
    _check_labels(labels)
    columns = pattern.columns
    tile_w, tile_h = geometry.widths, geometry.heights
    if not _uniform_sizes(geometry, column_bytes(columns, len(tile_w))):
        for x, column in enumerate(columns):
            for y, a in enumerate(column):
                if tile_w[a] != tile_w[column[0]]:
                    raise GeometryError(f"cell ({x},{y}) width differs from cell ({x},0)")
        for y, first in enumerate(columns[0]):
            for x, column in enumerate(columns):
                if tile_h[column[y]] != tile_h[first]:
                    raise GeometryError(f"cell ({x},{y}) height differs from cell (0,{y})")
    col_w = [tile_w[column[0]] for column in columns]
    row_h = [tile_h[a] for a in columns[0]]

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
    rect = '" fill="none" stroke="black" stroke-width="1"/>'
    if labels == "index":
        # The font size depends on the column's width and the row's height, so
        # each row's text attributes are formatted once per column width.
        widths, heights = {pw for _, pw in cols}, {ph for _, ph in rows}
        font = {
            (w, h): f'" font-size="{_fmt(min(w, h) / 3)}" text-anchor="middle" dominant-baseline="middle">'
            for w in widths for h in heights
        }
        row_font = {w: [(py, ph, cy, font[w, h]) for py, ph, cy, h in row_text] for w in widths}
        names = {a: f"{a}</text>" for a in pattern.letters()}
        for column, (px, pw, cx, w) in zip(pattern.columns, col_text):
            at, size, mid = f'<rect x="{px}" y="', f'" width="{pw}" height="', f'{rect}\n<text x="{cx}" y="'
            out += [
                f"{at}{py}{size}{ph}{mid}{cy}{attrs}{name}"
                for name, (py, ph, cy, attrs) in zip(map(names.__getitem__, column), row_font[w])
            ]
    else:
        row_end = [(py, ph + rect) for py, ph, _, _ in row_text]
        for px, pw, _, _ in col_text:
            at, size = f'<rect x="{px}" y="', f'" width="{pw}" height="'
            out += [f"{at}{py}{size}{ph}" for py, ph in row_end]
    out.append("</svg>\n")
    return "\n".join(out)


def _uniform_sizes(geometry: StoneGeometry, raw: Optional[list[bytes]]) -> bool:
    """Does each column, given as a byte string, hold one width class, and
    every column the first column's height classes?  False when raw is None."""
    if raw is None:
        return False
    wide, high = (
        bytes(map({v: i for i, v in enumerate(sizes)}.__getitem__, sizes)).ljust(256, b"\0")
        for sizes in (geometry.widths, geometry.heights)
    )
    first = raw[0].translate(high)
    return all(
        col.translate(wide).count(wide[col[0]]) == len(col) and col.translate(high) == first
        for col in raw
    )
