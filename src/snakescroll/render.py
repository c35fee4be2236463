"""ANSI and SVG renderings of orbit tables with snake/co-snake coloring.

Each renderer takes a table as its scroll and omega and draws its omega*m
rows.  A cell's colours depend only on its tape index mod sigma, so both
renderers work from one label period of the scroll's snake labels: the
ANSI table builds only its distinct rows and repeats them; the SVG builds
its text per column, per colour and per residue mod sigma once, and joins
each live entry's edges and node from those pieces in one pass.
`tests/oracles.py` keeps the per-cell renderers as their reference.
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
    and only the distinct rows are joined, then repeated.
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
        cell[None] = "."
        sigma = len(labels)
        distinct = min(r, sigma // gcd(sigma, n))
        # cells[t - 1] is the cell at tape index t, for t in 1..distinct*n
        period = [cell[label] for label in labels]
        cells = (period[1:] + period[:1]) * (distinct * n // sigma + 1)
        rows = ["".join(cells[i:i + n]) for i in range(0, distinct * n, n)]
        rows = rows * (r // distinct) + rows[: r % distinct]
        blocks.append("\n".join([title + ":", *rows]))
    return "\n\n".join(blocks) + "\n"


def svg_table(s: Scroll, omega: int) -> str:
    """The omega-fold table of s, its omega*m rows: live entries as colored
    nodes, successor and co-successor edges.

    Cell (row i, col j) sits at (j*unit, i*unit), unit = SVG_UNIT.  An edge
    that leaves the table past its last row is drawn split: out to the
    right margin, and back in from the left margin to its target's wrapped
    position, with a small re-entry marker at each end.

    Everything but an entry's y coordinates comes from tables built once:
    per column, the text of an edge, a node and an edge's target up to its
    y; per colour, the text that closes an edge; per residue of the offset
    t - 1 mod sigma (no more residues than the table has), both forward
    advances (`Scroll.steps`), both colours and the node's closing
    text.  One pass over the live offsets, in tape order, writes an entry's
    two edges as one string when neither leaves the table, and collects its
    node, drawn after every edge; a live entry with no unique letter raises
    that step's AssertionError, the successor's before the co-successor's.
    Each element's text ends with its newline, so the parts are joined once.
    """
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    unit, n, r = SVG_UNIT, s.n, omega * s.m
    size = r * n
    width, height = (n + 2) * unit, (r + 2) * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
    ]
    # light cell grid: one line per row and column boundary
    for i in range(r + 1):
        y = (i + 1) * unit
        out.append(
            f'<line x1="{unit}" y1="{y}" x2="{(n + 1) * unit}" y2="{y}" '
            f'stroke="#eeeeee"/>\n'
        )
    for j in range(n + 1):
        x = (j + 1) * unit
        out.append(
            f'<line x1="{x}" y1="{unit}" x2="{x}" y2="{(r + 1) * unit}" '
            f'stroke="#eeeeee"/>\n'
        )

    # offset o = t - 1 = i*n + j sits at (xs[j], ys[i]); per column, the text
    # of an edge, a node and an edge's target up to its y
    xs = [(j + 1) * unit for j in range(n)]
    ys = [str((i + 1) * unit) for i in range(r)]
    edges = [f'<line x1="{x}" y1="' for x in xs]
    nodes = [f'<circle cx="{x}" cy="' for x in xs]
    targets = [f'" x2="{x}" y2="' for x in xs]
    # per colour, the text that closes its edge (closes); per offset mod
    # sigma, its colour, None where dead (fills), as labels[t % sigma] is
    # the label of offset t - 1
    closes, fills = [], []
    snake, cosnake = s.snake_labels
    for labels, palette, dash in (
        (snake, SNAKE_PALETTE, ""),
        (cosnake, COSNAKE_PALETTE, 'stroke-dasharray="4 3"'),
    ):
        color = _label_colors(labels, palette)
        closes.append(
            {c: f'" stroke="{c}" stroke-width="2" {dash} fill="none"/>\n' for c in color.values()}
        )
        fills.append([color.get(label) for label in labels[1:] + labels[:1]])
    snake_close, cosnake_close = closes
    # per residue of the offset mod sigma, both advances, both colours and
    # the node's closing text; where sigma exceeds the table's size, only
    # the offsets below it, each its own residue
    succ, co_succ = s.steps.advances
    length, sigma = len(s.unit), min(len(fills[0]), size)
    radius = unit // 3
    residues = [
        (succ[k % length], co_succ[k % length], sc, cc,
         f'" r="{radius}" fill="{sc}" stroke="{cc}" stroke-width="3"/>\n')
        for k, sc, cc in zip(range(sigma), *fills)
    ]
    x_right, x_left = (n + 1) * unit + unit // 2, unit // 2  # margin x of split edges
    circles = []
    for o in compress(range(size), s.unit * (size // length)):
        j, y = o % n, ys[o // n]
        d, e, sc, cc, node = residues[o % sigma]
        if d is None:
            s.successor_step(o + 1)  # raises with the count of live candidates
        if e is None:
            s.co_successor_step(o + 1)
        circles.append(f'{nodes[j]}{y}{node}')
        # the targets' offsets: every advance is positive, so an edge leaves
        # the table exactly when its target is past the last entry
        u, v = o + d, o + e
        if u < size and v < size:
            out.append(
                f'{edges[j]}{y}{targets[u % n]}{ys[u // n]}{snake_close[sc]}'
                f'{edges[j]}{y}{targets[v % n]}{ys[v // n]}{cosnake_close[cc]}'
            )
            continue
        for w, close, color in ((u, snake_close[sc], sc), (v, cosnake_close[cc], cc)):
            i, k = divmod(w % size, n)  # the target, wrapped into the table
            if w < size:
                out.append(f'{edges[j]}{y}{targets[k]}{ys[i]}{close}')
            else:
                out.append(f'{edges[j]}{y}" x2="{x_right}" y2="{y}{close}')
                out.append(f'<circle cx="{x_right}" cy="{y}" r="3" fill="{color}"/>\n')
                out.append(f'<line x1="{x_left}" y1="{ys[i]}{targets[k]}{ys[i]}{close}')
                out.append(f'<circle cx="{x_left}" cy="{ys[i]}" r="3" fill="{color}"/>\n')
    out += circles
    out.append("</svg>\n")
    return "".join(out)
