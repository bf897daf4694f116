"""Views of patterns and morphisms: text grids, SVG, TikZ, stone inflation.

All renderers are pure string builders: identical inputs give identical
bytes.  Patterns are drawn in Cartesian orientation (row 0 at the bottom).
Invalid patterns are still rendered, with the offending edges marked.
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
    bad = set(violations(T, pattern))
    if ascii_only:
        tl = tr = bl = br = tm = bm = lm = rm = mm = "+"
        hbar = "-"
    else:
        tl, tr, bl, br = "┌", "┐", "└", "┘"
        tm, bm, lm, rm, mm = "┬", "┴", "├", "┤", "┼"
        hbar = "─"

    def tile(x: int, y: int):
        return T[pattern.cell(x, y)]

    tokens = [display_token(c) for t in pattern.letters() for c in T[t].as_tuple()]
    centers = [str(pattern.cell(x, y)) if labels == "index" else ""
               for x in range(n1) for y in range(n2)]
    cw = max(max(len(s) for s in tokens), max(len(s) for s in centers), 1) + 2
    bw = max(max(len(s) for s in tokens), 1)  # width of the vertical border slots

    def border_line(y: int) -> str:
        cells = []
        for x in range(n1):
            if y == n2:
                color = display_token(tile(x, y - 1).top)
            elif y == 0:
                color = display_token(tile(x, 0).bottom)
            elif ((x, y - 1), (x, y)) in bad:
                color = "X"
            else:
                color = display_token(tile(x, y).bottom)
            cells.append(_center(color, cw, hbar))
        if y == n2:
            left, mid, right = tl, tm, tr
        elif y == 0:
            left, mid, right = bl, bm, br
        else:
            left, mid, right = lm, mm, rm
        joiner = _center(mid, bw, hbar)
        return left + hbar * (bw - 1) + joiner.join(cells) + hbar * (bw - 1) + right

    def body_line(y: int) -> str:
        seps = []
        for x in range(n1 + 1):
            if x == 0:
                seps.append(display_token(tile(0, y).left))
            elif x == n1:
                seps.append(display_token(tile(n1 - 1, y).right))
            elif ((x - 1, y), (x, y)) in bad:
                seps.append("X")
            else:
                seps.append(display_token(tile(x, y).left))
        body = seps[0].ljust(bw)
        for x in range(n1 - 1):
            label = str(pattern.cell(x, y)) if labels == "index" else ""
            body += _center(label, cw, " ") + _center(seps[x + 1], bw, " ")
        label = str(pattern.cell(n1 - 1, y)) if labels == "index" else ""
        return body + _center(label, cw, " ") + seps[n1].rjust(bw)

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
    """SVG 1.1 document; each cell shows four colored edge triangles."""
    n1, n2 = pattern.shape
    bad = set(violations(T, pattern))
    colors = _palette_for(T, pattern)
    s = SVG_CELL
    W, H = n1 * s, n2 * s
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(W)}" height="{_fmt(H)}" viewBox="0 0 {_fmt(W)} {_fmt(H)}">',
    ]
    for x in range(n1):
        for y in range(n2):
            t = T[pattern.cell(x, y)]
            x0, y0 = x * s, (n2 - 1 - y) * s
            cx, cy = x0 + s / 2, y0 + s / 2
            corners = {
                "bl": (x0, y0 + s), "br": (x0 + s, y0 + s),
                "tl": (x0, y0), "tr": (x0 + s, y0),
            }
            tris = (
                (t.right, corners["br"], corners["tr"]),
                (t.top, corners["tl"], corners["tr"]),
                (t.left, corners["bl"], corners["tl"]),
                (t.bottom, corners["bl"], corners["br"]),
            )
            for color, p1, p2 in tris:
                out.append(
                    f'<polygon points="{_fmt(p1[0])},{_fmt(p1[1])} {_fmt(cx)},{_fmt(cy)} '
                    f'{_fmt(p2[0])},{_fmt(p2[1])}" fill="{colors[color]}" stroke="none"/>'
                )
            out.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(s)}" height="{_fmt(s)}" '
                f'fill="none" stroke="black" stroke-width="1"/>'
            )
            if labels == "index":
                out.append(
                    f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="{_fmt(s / 4)}" '
                    f'text-anchor="middle" dominant-baseline="middle">{pattern.cell(x, y)}</text>'
                )
            else:
                for color, px, py in (
                    (t.right, x0 + 0.85 * s, cy),
                    (t.top, cx, y0 + 0.15 * s),
                    (t.left, x0 + 0.15 * s, cy),
                    (t.bottom, cx, y0 + 0.85 * s),
                ):
                    out.append(
                        f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="{_fmt(s / 5)}" '
                        f'text-anchor="middle" dominant-baseline="middle">'
                        f"{display_token(color)}</text>"
                    )
    for (x1c, y1c), (x2c, y2c) in sorted(bad):
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


def render_tikz(T: WangTileSet, pattern: Word2d, labels: str = "index") -> str:
    """Standalone tikzpicture with one unit square per cell."""
    n1, n2 = pattern.shape
    bad = set(violations(T, pattern))
    out = ["\\begin{tikzpicture}[scale=1.0]", "\\tikzstyle{every node}=[font=\\tiny]"]
    for x in range(n1):
        for y in range(n2):
            t = T[pattern.cell(x, y)]
            out.append(f"\\draw ({x}, {y}) rectangle ({x + 1}, {y + 1});")
            if labels == "index":
                out.append(f"\\node at ({x}.5, {y}.5) {{{pattern.cell(x, y)}}};")
            out.append(f"\\node at ({x}.8, {y}.5) {{{display_token(t.right)}}};")
            out.append(f"\\node at ({x}.5, {y}.8) {{{display_token(t.top)}}};")
            out.append(f"\\node at ({x}.2, {y}.5) {{{display_token(t.left)}}};")
            out.append(f"\\node at ({x}.5, {y}.2) {{{display_token(t.bottom)}}};")
    for (x1c, y1c), (x2c, y2c) in sorted(bad):
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


def _tikz_cells(T: WangTileSet, pattern: Word2d, ox: float, oy: float) -> list[str]:
    out = []
    n1, n2 = pattern.shape
    for x in range(n1):
        for y in range(n2):
            t = T[pattern.cell(x, y)]
            px, py = ox + x, oy + y
            out.append(f"\\draw ({px}, {py}) rectangle ({px + 1}, {py + 1});")
            out.append(f"\\node at ({px + 0.5}, {py + 0.5}) {{{pattern.cell(x, y)}}};")
            out.append(f"\\node at ({px + 0.8}, {py + 0.5}) {{{display_token(t.right)}}};")
            out.append(f"\\node at ({px + 0.5}, {py + 0.8}) {{{display_token(t.top)}}};")
            out.append(f"\\node at ({px + 0.2}, {py + 0.5}) {{{display_token(t.left)}}};")
            out.append(f"\\node at ({px + 0.5}, {py + 0.2}) {{{display_token(t.bottom)}}};")
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
            parts.append(f"% letter {a}")
            parts.append("\\begin{tikzpicture}[scale=0.9]")
            parts.append("\\tikzstyle{every node}=[font=\\tiny]")
            parts.extend(_tikz_cells(m.domain, Word2d.letter(a), 0.0, 0.0))
            parts.append("\\node at (1.5, 0.5) {$\\mapsto$};")
            parts.extend(_tikz_cells(m.codomain, im, 2.0, 0.0))
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

    def rectangle(self, i: int) -> tuple[GoldenNumber, GoldenNumber]:
        return (self.widths[i], self.heights[i])

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
    n1, n2 = pattern.shape
    col_w: list[GoldenNumber] = []
    row_h: list[GoldenNumber] = []
    for x in range(n1):
        w0 = geometry.widths[pattern.cell(x, 0)]
        for y in range(1, n2):
            if geometry.widths[pattern.cell(x, y)] != w0:
                raise GeometryError(f"cell ({x},{y}) width differs from cell ({x},0)")
        col_w.append(w0)
    for y in range(n2):
        h0 = geometry.heights[pattern.cell(0, y)]
        for x in range(1, n1):
            if geometry.heights[pattern.cell(x, y)] != h0:
                raise GeometryError(f"cell ({x},{y}) height differs from cell (0,{y})")
        row_h.append(h0)

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
    for x in range(n1):
        for y in range(n2):
            px = float(xs[x]) * scale
            pw = float(col_w[x]) * scale
            ph = float(row_h[y]) * scale
            py = (total_h - float(ys[y + 1])) * scale
            out.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
                f'height="{_fmt(ph)}" fill="none" stroke="black" stroke-width="1"/>'
            )
            if labels == "index":
                out.append(
                    f'<text x="{_fmt(px + pw / 2)}" y="{_fmt(py + ph / 2)}" '
                    f'font-size="{_fmt(min(pw, ph) / 3)}" text-anchor="middle" '
                    f'dominant-baseline="middle">{pattern.cell(x, y)}</text>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"
