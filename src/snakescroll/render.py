"""ANSI and SVG renderings of orbit tables with snake/co-snake coloring.

Each renderer takes a table as its scroll and omega and draws its omega*m
rows.  A cell's colours depend only on its tape index mod sigma, so both
renderers work from one label period of the scroll's snake labels: the
ANSI table builds only its distinct rows, the SVG formats each coordinate
and colour once.  `tests/oracles.py` keeps the per-cell renderers as
their reference.
"""

from __future__ import annotations

from itertools import compress
from math import gcd

from .scroll import Scroll

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
    """Palette entries, cycled, for the snake ids in the order tape indices
    0, 1, ... first meet them: the order of their snakes' least residues."""
    ordered = [label for label in dict.fromkeys(labels) if label is not None]
    return {label: palette[i % len(palette)] for i, label in enumerate(ordered)}


def ansi_table(s: Scroll, omega: int) -> str:
    """Two colored copies of the omega-fold table of s, its omega*m rows:
    snake scheme, then co-snake scheme.

    The cell at tape index t depends only on t mod sigma = len(labels), dead
    exactly where its label is None, so one label period of cells is built;
    row i starts at t = i*n + 1, so it equals row i mod sigma/gcd(sigma, n),
    and only the distinct rows are joined.
    """
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    n, r = s.n, omega * s.m
    blocks = []
    for title, labels in zip(("snakes", "co-snakes"), s.snake_labels):
        cell = {
            label: f"\x1b[{color}m1\x1b[0m"
            for label, color in _label_colors(labels, ANSI_COLORS).items()
        }
        sigma = len(labels)
        distinct = min(r, sigma // gcd(sigma, n))
        # cells[t - 1] is the cell at tape index t, for t in 1..distinct*n
        period = [cell[label] if label is not None else "." for label in labels]
        cells = (period[1:] + period[:1]) * (distinct * n // sigma + 1)
        rows = ["".join(cells[i:i + n]) for i in range(0, distinct * n, n)]
        blocks.append("\n".join([title + ":", *(rows[i % distinct] for i in range(r))]))
    return "\n\n".join(blocks) + "\n"


def svg_table(s: Scroll, omega: int) -> str:
    """The omega-fold table of s, its omega*m rows: live entries as colored
    nodes, successor and co-successor edges.

    Cell (row i, col j) sits at (j*unit, i*unit), unit = SVG_UNIT.  An edge
    that leaves the table past its last row is drawn split: out to the
    right margin, and back in from the left margin to its target's wrapped
    position, with a small re-entry marker at each end.  Per live entry, in
    tape order, both steps are read off the scroll's forward advances
    (`Scroll.step_advances`), and both edges are formatted together when
    neither leaves the table; a live entry with no unique letter raises
    that step's AssertionError, the successor's before the co-successor's.
    """
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    unit, n, r = SVG_UNIT, s.n, omega * s.m
    size = r * n
    snake, cosnake = s.snake_labels
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

    # tape index t = i*n + (j+1) sits at (xs[j], ys[i]), each formatted once
    xs = [str((j + 1) * unit) for j in range(n)]
    ys = [str((i + 1) * unit) for i in range(r)]
    # per residue mod sigma, the snake (then co-snake) colour, None where dead,
    # and the edge attributes of each colour, formatted once per step
    fills, strokes = [], []
    for labels, palette, dash in (
        (snake, SNAKE_PALETTE, ""),
        (cosnake, COSNAKE_PALETTE, 'stroke-dasharray="4 3"'),
    ):
        color = _label_colors(labels, palette)
        fills.append([None if label is None else color[label] for label in labels])
        strokes.append(
            {c: f'stroke="{c}" stroke-width="2" {dash} fill="none"' for c in color.values()}
        )
    snake_fill, cosnake_fill = fills
    snake_stroke, cosnake_stroke = strokes
    # (t, x, y, snake colour, co-snake colour) per live entry, for edges then nodes
    modulus = len(snake)
    period = s.unit  # X_t is period[(t - 1) % P]
    length = len(period)
    entries = [
        (t, xs[(t - 1) % n], ys[(t - 1) // n], snake_fill[t % modulus], cosnake_fill[t % modulus])
        for t in compress(range(1, size + 1), period * (size // length))
    ]

    succ, co_succ = s.step_advances
    x_right, x_left = (n + 1) * unit + unit // 2, unit // 2  # margin x of split edges
    for t, x1, y1, scolor, ccolor in entries:
        residue = (t - 1) % length
        d, e = succ[residue], co_succ[residue]
        if d is None:
            s.successor_step(t)  # raises with the count of live candidates
        if e is None:
            s.co_successor_step(t)
        # the targets' offsets t' - 1: every advance is positive, so an edge
        # leaves the table exactly when its target is past the last entry
        u, v = t - 1 + d, t - 1 + e
        if u < size and v < size:
            out.append(
                f'<line x1="{x1}" y1="{y1}" x2="{xs[u % n]}" y2="{ys[u // n]}" '
                f'{snake_stroke[scolor]}/>\n'
                f'<line x1="{x1}" y1="{y1}" x2="{xs[v % n]}" y2="{ys[v // n]}" '
                f'{cosnake_stroke[ccolor]}/>'
            )
            continue
        for w, attrs_of, color in ((u, snake_stroke, scolor), (v, cosnake_stroke, ccolor)):
            attrs = attrs_of[color]
            i, j = divmod(w % size, n)  # the target, wrapped into the table
            x2, y2 = xs[j], ys[i]
            if w < size:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {attrs}/>')
            else:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x_right}" y2="{y1}" {attrs}/>')
                out.append(f'<circle cx="{x_right}" cy="{y1}" r="3" fill="{color}"/>')
                out.append(f'<line x1="{x_left}" y1="{y2}" x2="{x2}" y2="{y2}" {attrs}/>')
                out.append(f'<circle cx="{x_left}" cy="{y2}" r="3" fill="{color}"/>')

    radius = unit // 3
    out.extend(
        f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{scolor}" '
        f'stroke="{ccolor}" stroke-width="3"/>'
        for _, x, y, scolor, ccolor in entries
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
