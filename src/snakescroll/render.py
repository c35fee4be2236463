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
    bits = s.vector * table.omega  # bits[t - 1] is X_t for t in 1..size
    live = list(compress(range(1, len(bits) + 1), bits))
    blocks = []
    for title, labels in zip(("snakes", "co-snakes"), s.snake_labels):
        cell = {
            label: f"\x1b[{color}m1\x1b[0m"
            for label, color in _label_colors(labels, ANSI_COLORS).items()
        }
        chars = ["."] * len(bits)
        for t in live:
            chars[t - 1] = cell[labels[t % len(labels)]]
        rows = ["".join(chars[i:i + s.n]) for i in range(0, len(chars), s.n)]
        blocks.append("\n".join([title + ":", *rows]))
    return "\n\n".join(blocks) + "\n"


def svg_table(table: OrbitTable) -> str:
    """Live entries as colored nodes, successor and co-successor edges.

    Cell (row i, col j) sits at (j*unit, i*unit), unit = SVG_UNIT.  An edge
    that leaves the table past its last row is drawn split: out to the
    right margin, and back in from the left margin to its target's wrapped
    position, with a small re-entry marker at each end.  Each step is read
    off the scroll's letter tables; a live entry with no unique letter
    raises that step's AssertionError.
    """
    s, unit = table.scroll, SVG_UNIT
    n, r = s.n, table.r
    size = r * n
    snake, cosnake = s.snake_labels
    snake_color = _label_colors(snake, SNAKE_PALETTE)
    cosnake_color = _label_colors(cosnake, COSNAKE_PALETTE)
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

    # (t, x, y, (snake colour, co-snake colour)) per live entry, for edges then
    # nodes, x and y formatted once; tape index t = i*n + (j+1) sits at
    # ((j+1)*unit, (i+1)*unit)
    modulus, entries, xy = len(snake), [], {}
    for t in compress(range(1, size + 1), s.vector * table.omega):
        i, j = divmod(t - 1, n)
        xy[t] = x, y = str((j + 1) * unit), str((i + 1) * unit)
        label = t % modulus
        entries.append((t, x, y, (snake_color[snake[label]], cosnake_color[cosnake[label]])))

    # the edge attributes of each colour, formatted once per step
    snake_strokes, cosnake_strokes = (
        {c: f'stroke="{c}" stroke-width="2" {dash} fill="none"' for c in colors.values()}
        for colors, dash in ((snake_color, ""), (cosnake_color, 'stroke-dasharray="4 3"'))
    )
    steps = (
        (s.successor_letters, s.successor_step, snake_strokes),
        (s.co_successor_letters, s.co_successor_step, cosnake_strokes),
    )
    advance, length = s._advance, len(s.successor_letters)
    x_right, x_left = (n + 1) * unit + unit // 2, unit // 2  # margin x of split edges
    for t, x1, y1, colors in entries:
        residue = (t - 1) % length
        for (letters, step, strokes), color in zip(steps, colors):
            d = advance.get(letters[residue])
            u = step(t)[0] if d is None else t + d  # the step raises on a count letter
            attrs = strokes[color]
            x2, y2 = xy[(u - 1) % size + 1]  # the target, wrapped into the table
            if 1 <= u <= size:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {attrs}/>')
            else:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x_right}" y2="{y1}" {attrs}/>')
                out.append(f'<circle cx="{x_right}" cy="{y1}" r="3" fill="{color}"/>')
                out.append(f'<line x1="{x_left}" y1="{y2}" x2="{x2}" y2="{y2}" {attrs}/>')
                out.append(f'<circle cx="{x_left}" cy="{y2}" r="3" fill="{color}"/>')

    radius = unit // 3
    for t, x, y, (scolor, ccolor) in entries:
        out.append(
            f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{scolor}" '
            f'stroke="{ccolor}" stroke-width="3"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
