"""ANSI and SVG renderings of orbit tables with snake/co-snake coloring."""

from __future__ import annotations

from .scroll import snakes_and_cosnakes
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


def _label_indices(labels: dict[int, int]) -> dict[int, int]:
    return {label: i for i, label in enumerate(sorted(set(labels.values())))}


def ansi_table(table: OrbitTable) -> str:
    """Two colored copies of the table: snake scheme, then co-snake scheme."""
    s = table.scroll
    part = snakes_and_cosnakes(s)
    snake_idx = _label_indices(part.snake_label)
    cosnake_idx = _label_indices(part.cosnake_label)
    blocks = []
    for title, labels, idx in (
        ("snakes", part.snake_label, snake_idx),
        ("co-snakes", part.cosnake_label, cosnake_idx),
    ):
        lines = [title + ":"]
        for i in range(table.r):
            chars = []
            for j in range(1, s.n + 1):
                t = i * s.n + j
                if s.tape(t) == 1:
                    color = ANSI_COLORS[idx[labels[t % part.sigma]] % len(ANSI_COLORS)]
                    chars.append(f"\x1b[{color}m1\x1b[0m")
                else:
                    chars.append(".")
            lines.append("".join(chars))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def svg_table(table: OrbitTable, unit: int = 28) -> str:
    """Live entries as colored nodes, successor and co-successor edges.

    Cell (row i, col j) sits at (j*unit, i*unit).  Edges that overflow
    the right margin are drawn split, with small re-entry markers.
    """
    s = table.scroll
    n, r = s.n, table.r
    part = snakes_and_cosnakes(s)
    snake_idx = _label_indices(part.snake_label)
    cosnake_idx = _label_indices(part.cosnake_label)
    width, height = (n + 2) * unit, (r + 2) * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # light parallelogram tiling: grid lines per cell
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

    for t in table.live:
        st = s.successor(t)
        ct = s.co_successor(t)
        scolor = SNAKE_PALETTE[snake_idx[part.snake_label[t % part.sigma]] % len(SNAKE_PALETTE)]
        ccolor = COSNAKE_PALETTE[
            cosnake_idx[part.cosnake_label[t % part.sigma]] % len(COSNAKE_PALETTE)
        ]
        edge(t, st, scolor, "")
        edge(t, ct, ccolor, 'stroke-dasharray="4 3"')

    for t in table.live:
        x, y = xy(t)
        scolor = SNAKE_PALETTE[snake_idx[part.snake_label[t % part.sigma]] % len(SNAKE_PALETTE)]
        ccolor = COSNAKE_PALETTE[
            cosnake_idx[part.cosnake_label[t % part.sigma]] % len(COSNAKE_PALETTE)
        ]
        out.append(
            f'<circle cx="{x}" cy="{y}" r="{unit // 3}" fill="{scolor}" '
            f'stroke="{ccolor}" stroke-width="3"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
