"""ANSI and SVG renderings of orbit tables with snake/co-snake coloring."""

from __future__ import annotations

from itertools import compress

from .tables import OrbitTable

ANSI_COLORS = [31, 34, 35, 32, 33, 36, 91, 94, 95, 92, 93, 96]
SNAKE_PALETTE = [
    "#c0392b", "#2962ff", "#8e44ad", "#1e8449", "#e67e22", "#00838f",
    "#ad1457", "#5d4037", "#7cb342", "#4527a0",
]
COSNAKE_PALETTE = [
    "#e74c3c", "#3498db", "#9b59b6", "#2ecc71", "#f39c12", "#1abc9c",
    "#d81b60", "#8d6e63", "#aeea00", "#7e57c2",
]
SVG_UNIT = 28  # pixels per table cell


def _label_colors(labels: list, palette: list) -> dict:
    """Palette entries, cycled, for the labels (the residues labelling themselves), ascending."""
    ordered = [r for r, label in enumerate(labels) if label == r]
    return {label: palette[i % len(palette)] for i, label in enumerate(ordered)}


def ansi_table(table: OrbitTable) -> str:
    """Two colored copies of the table: snake scheme, then co-snake scheme."""
    s = table.scroll
    part = s.snakes
    bits = s.vector * table.omega  # bits[t - 1] is X_t for t in 1..size
    blocks = []
    for title, labels in (("snakes", part.snake_label), ("co-snakes", part.cosnake_label)):
        cell = {
            label: f"\x1b[{color}m1\x1b[0m"
            for label, color in _label_colors(labels, ANSI_COLORS).items()
        }
        chars = [cell[labels[t % part.modulus]] if bit else "." for t, bit in enumerate(bits, 1)]
        rows = ["".join(chars[i:i + s.n]) for i in range(0, len(chars), s.n)]
        blocks.append("\n".join([title + ":", *rows]))
    return "\n\n".join(blocks) + "\n"


def svg_table(table: OrbitTable) -> str:
    """Live entries as colored nodes, successor and co-successor edges.

    Cell (row i, col j) sits at (j*unit, i*unit), unit = SVG_UNIT.  Edges
    that overflow the right margin are drawn split, with small re-entry
    markers.
    """
    s, unit = table.scroll, SVG_UNIT
    n, r = s.n, table.r
    part = s.snakes
    snake_color = _label_colors(part.snake_label, SNAKE_PALETTE)
    cosnake_color = _label_colors(part.cosnake_label, COSNAKE_PALETTE)
    width, height = (n + 2) * unit, (r + 2) * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # light cell grid: one line per row and column boundary
    for i in range(r + 1):
        y = (i + 1) * unit
        out.append(
            f'<line x1="{unit}" y1="{y}" x2="{(n + 1) * unit}" y2="{y}" '
            f'stroke="#eeeeee"/>'
        )
    for j in range(n + 1):
        x = (j + 1) * unit
        out.append(
            f'<line x1="{x}" y1="{unit}" x2="{x}" y2="{(r + 1) * unit}" '
            f'stroke="#eeeeee"/>'
        )

    def xy(t: int) -> tuple[int, int]:
        i, j = divmod(t - 1, n)  # tape index t = i*n + (j+1)
        return (j + 1) * unit, (i + 1) * unit

    def edge(t: int, u: int, color: str, dash: str) -> None:
        x1, y1 = xy(t)
        attrs = f'stroke="{color}" stroke-width="2" {dash} fill="none"'
        if 1 <= u <= table.size:
            x2, y2 = xy(u)
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {attrs}/>')
        else:
            # wrap past the bottom: split with re-entry markers
            x2, y2 = xy((u - 1) % table.size + 1)
            xm = (n + 1) * unit + unit // 2
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{xm}" y2="{y1}" {attrs}/>')
            out.append(f'<circle cx="{xm}" cy="{y1}" r="3" fill="{color}"/>')
            xs = unit // 2
            out.append(f'<line x1="{xs}" y1="{y2}" x2="{x2}" y2="{y2}" {attrs}/>')
            out.append(f'<circle cx="{xs}" cy="{y2}" r="3" fill="{color}"/>')

    # (t, snake colour, co-snake colour) per live entry, for edges then nodes
    entries = [
        (t, snake_color[part.snake_of(t)], cosnake_color[part.cosnake_of(t)])
        for t in compress(range(1, table.size + 1), s.vector * table.omega)
    ]
    for t, scolor, ccolor in entries:
        edge(t, s.successor(t), scolor, "")
        edge(t, s.co_successor(t), ccolor, 'stroke-dasharray="4 3"')

    for t, scolor, ccolor in entries:
        x, y = xy(t)
        out.append(
            f'<circle cx="{x}" cy="{y}" r="{unit // 3}" fill="{scolor}" '
            f'stroke="{ccolor}" stroke-width="3"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
