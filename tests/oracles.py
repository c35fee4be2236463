"""Oracles the tests check library code against, kept apart from that code."""

import sys
from collections import Counter
from itertools import compress
from math import gcd

from snakescroll import cli
from snakescroll.render import ANSI_COLORS, COSNAKE_PALETTE, SNAKE_PALETTE, SVG_UNIT
from snakescroll.scroll import Scroll, lifted_counts

# the per-residue laws of verify.check_scroll
RESIDUE_LAWS = (
    "six-neighbor zeros",
    "unique successor candidates",
    "commutation",
    "parallelogram",
    "predecessor round trip",
    "successor advance linear",
)


# (rows, columns) one step of each letter moves across the scroll, restated
# from the paper's four step shapes, not read from the library
STEP_SHAPE = {"E": (0, 2), "D": (1, 1), "S": (2, -1), "L": (2, -2)}


def require_independent(bits: str) -> None:
    """Reject a word that is not an independent set of C_n, n >= 2: a
    letter other than '0' or '1', or two 1s at adjacent vertices, the
    last vertex adjacent to the first."""
    n = len(bits)
    adjacent = any(bits[i] == bits[(i + 1) % n] == "1" for i in range(n))
    if n < 2 or set(bits) - {"0", "1"} or adjacent:
        raise ValueError(f"not an independent set of C_{n}: {bits!r}")


def eca1_local(a: int, b: int, c: int) -> int:
    """Local rule of elementary cellular automaton 1: NOR of the window."""
    return 1 if (a, b, c) == (0, 0, 0) else 0


def toggle(bits: str, k: int) -> str:
    """Attempt to flip vertex k (1-based); adds only when both neighbors are 0."""
    require_independent(bits)
    n = len(bits)
    if not 1 <= k <= n:
        raise ValueError(f"vertex index {k} out of range 1..{n}")
    i = k - 1
    left, mid, right = bits[i - 1], bits[i], bits[(i + 1) % n]
    new = eca1_local(int(left), int(mid), int(right))
    if int(mid) == new:
        return bits
    return bits[:i] + str(new) + bits[i + 1 :]


def sweep(bits: str) -> str:
    """One full pass of toggles at vertices 1..n on the evolving word: the
    string definition the tape recurrence of `cycles` is held to."""
    require_independent(bits)
    n = len(bits)
    word = list(bits)
    for i in range(n):
        window = (int(word[i - 1]), int(word[i]), int(word[(i + 1) % n]))
        word[i] = str(eca1_local(*window))
    return "".join(word)


def sawada_necklaces(a: str, b: str, ca: int, cb: int) -> list[str]:
    """Necklaces over {a, b} (a < b) with ca a's and cb b's, in ASCII order.

    The letter-by-letter fixed-content recursion (J. Sawada, "A fast
    algorithm to generate necklaces with fixed content", TCS 2003): it
    extends prenecklaces one letter at a time within the remaining letter
    counts, tracking the period p of the longest Lyndon prefix, and emits a
    completed word exactly when p divides its length.
    """
    length = ca + cb
    if ca == 0:
        return [b * cb]
    out: list[str] = []
    letters = (a, b)
    word = [0] * (length + 1)  # word[1..length] in ranks; word[1] = 0
    left = [ca - 1, cb]

    def gen(t: int, p: int) -> None:
        if t > length:
            if length % p == 0:
                out.append("".join([letters[x] for x in word[1:]]))
            return
        prev = word[t - p]
        for j in range(prev, 2):
            if left[j]:
                left[j] -= 1
                word[t] = j
                gen(t + 1, p if j == prev else t)
                left[j] += 1

    gen(2, 1)
    return sorted(out)


# each step map's letter table, by name: the Scroll pair that holds it, and
# its index there
LETTER_TABLES = {
    "successor_letters": ("step_letters", 0),
    "co_successor_letters": ("step_letters", 1),
    "predecessor_letters": ("inverse_letters", 0),
    "co_predecessor_letters": ("inverse_letters", 1),
}


def letters_of(s: Scroll, name: str) -> str:
    """The letter table named name (`LETTER_TABLES`)."""
    pair, index = LETTER_TABLES[name]
    return getattr(s, pair)[index]


def inject_letters(s: Scroll, name: str, letters: str) -> None:
    """Replace the letter table named name with letters, keeping the other
    map's table of its direction, as a fault test injects it."""
    pair, index = LETTER_TABLES[name]
    tables = list(getattr(s, pair))
    tables[index] = letters
    vars(s)[pair] = tuple(tables)


def table_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """The library's (bar_alpha, bar_beta) of the omega-fold table of s,
    lifted from the windings as `verify.check_tables` and
    `report.orbit_report` lift them."""
    return lifted_counts(s, omega * s.size // len(s.unit))


def vector(s: Scroll) -> bytes:
    """X_1..X_(m*n), the orbit's m*n residues: its period repeated."""
    return s.period * (s.m * s.n // len(s.period))


def successor(s: Scroll, t: int) -> int:
    """The successor of the live tape index t, read off its step."""
    return s.successor_step(t)[0]


def co_successor(s: Scroll, t: int) -> int:
    """The co-successor of the live tape index t, read off its step."""
    return s.co_successor_step(t)[0]


def live_residues(s: Scroll, modulus: int) -> list[int]:
    """The live residues mod modulus, ascending, read off the vector."""
    bits = vector(s)
    return [r for r in range(modulus) if bits[(r - 1) % len(bits)]]


def walked_labels(s: Scroll, modulus: int) -> list[list]:
    """Per residue mod modulus, the least member of its cycle of the
    successor (then co-successor), None on dead residues.

    Oracle for `Scroll.snake_labels`, which reads the cycles mod sigma off
    the cycles mod the tape period and names each by an id (compare after
    `relabelled`): this steps `successor` and
    `co_successor` round each cycle mod modulus, from its least live
    residue, and labels every residue it passes.
    """
    live = live_residues(s, modulus)
    labels = []
    for step in (successor, co_successor):
        label = [None] * modulus
        for r in live:
            if label[r] is not None:
                continue
            cycle, t = [r], step(s, r) % modulus
            while t != r:
                if len(cycle) > len(live):
                    raise AssertionError(f"the step does not return to {r}")
                cycle.append(t)
                t = step(s, t) % modulus
            for t in cycle:
                label[t] = r
        labels.append(label)
    return labels


def least_residues(labels: list) -> dict:
    """Per label of labels, the least index that carries it; None, the
    label of a dead residue, has none."""
    first: dict = {}
    for t, label in enumerate(labels):
        first.setdefault(label, t)
    first.pop(None, None)
    return first


def relabelled(labels: list) -> list:
    """labels with each label replaced by the least index that carries it,
    None kept: two labellings of one partition relabel alike, and
    `walked_labels` labels so already."""
    first = least_residues(labels)
    return [None if label is None else first[label] for label in labels]


def walked_counts(s: Scroll, modulus: int) -> tuple[int, int]:
    """Number of cycles of successor and co-successor on the live residues
    mod modulus, walking the tape steps from each residue not yet seen.

    Oracle for `scroll.lifted_counts`, which sums gcds of the windings mod
    the tape period.
    """
    live = live_residues(s, modulus)
    counts = []
    for step in (successor, co_successor):
        seen, cycles = set(), 0
        for r in live:
            if r in seen:
                continue
            cycles, t = cycles + 1, r
            while t not in seen:
                seen.add(t)
                t = step(s, t) % modulus
            assert t == r  # a permutation closes each cycle at its start
        counts.append(cycles)
    return tuple(counts)


def reduced_maps(s: Scroll, modulus: int) -> tuple[list, list]:
    """Successor and co-successor of s reduced mod M = modulus.

    Entry r is the image of every tape index t = r (mod M), reduced mod M,
    or None for a dead residue.  Oracle for the cycle walk
    (`scroll.walk_cycles`), which steps a residue by the scroll's advance
    at it mod the tape period: this calls each step at each live index of
    [0, g), g = gcd(M, m*n), and extends by the shift g, which the steps
    commute with mod M, as they do with the shift by m*n.
    """
    bits = vector(s)
    g = gcd(modulus, len(bits))
    maps = ([None] * modulus, [None] * modulus)
    for image, step in zip(maps, (successor, co_successor)):
        for r in range(g):
            if bits[(r - 1) % len(bits)]:
                # (t + step(r) - r) mod M for t = r, r + g, ..: up to M, then from v mod g
                v = step(s, r) % modulus
                image[r::g] = [*range(v, modulus, g), *range(v % g, v, g)]
    return maps


def map_torsor(maps: tuple[list, list], live, outer: int, inner: int) -> bool:
    """Whether s^a c^b (a < outer, b < inner) moves t0, the least live tape
    index t >= 1 (tape index 0 is tape index M), onto each of the live
    residues once, (s, c) = maps, the `reduced_maps` mod some M and live the
    live residues mod M.

    Oracle for verify._is_torsor, which walks only s and counts the c-orbits
    mod M it meets, read off the scroll's cycles mod the tape period, and
    their sizes: this walk visits every image, on the live residues and the
    maps reduced mod M alone.  It is true on every shape that moves t0
    bijectively, and `_is_torsor` only where, besides, each arc is a whole
    c-orbit; the two agree where outer is the number of c-orbits mod M.
    """
    s, c = maps
    if outer * inner != len(live):
        return False
    seen, cur = set(), min(live, key=lambda t: t or len(s))
    for _ in range(outer):
        val = cur
        for _ in range(inner):
            if val in seen:
                return False
            seen.add(val)
            val = c[val]
        cur = s[cur]
    return True


def permutation_group_invariants(scroll: Scroll, omega: int) -> tuple[int, ...]:
    """Nontrivial invariant factors of the group the reduced maps generate
    on the omega-fold table of scroll.

    Oracle for group_factors: it reads only the table's live residues
    and the two maps reduced mod the table size, omega times the length of
    the vector (`reduced_maps`), s (successor) and c (co-successor), both
    read off the scroll's vector and steps.
    Commuting maps whose group is transitive on the live entries act simply
    transitively, so the group is Z^2 modulo the stabiliser lattice of t0.
    With l the length of the c-orbit of t0 and s^k(t0) = c^j(t0) for the least
    k > 0, that lattice has basis (0, l), (k, -j) and index k*l = eta.
    """
    size = omega * len(vector(scroll))
    live, (s, c) = live_residues(scroll, size), reduced_maps(scroll, size)
    for x in live:
        if s[c[x]] != c[s[x]]:
            raise AssertionError(f"successor and co-successor do not commute at {x}")
    t0 = live[0]
    c_index: dict[int, int] = {}
    x = t0
    while x not in c_index:
        c_index[x] = len(c_index)
        x = c[x]
    if x != t0:
        raise AssertionError("co-successor does not return to t0")
    ell = len(c_index)
    x, k = s[t0], 1
    while x not in c_index:
        if k == len(live):
            raise AssertionError("successor does not return to the c-orbit of t0")
        x, k = s[x], k + 1
    j = c_index[x]
    if k * ell != len(live):
        raise AssertionError(f"the group moves t0 to {k * ell} of {len(live)} entries")
    d1 = gcd(ell, k, j)
    return tuple(d for d in (d1, k * ell // d1) if d > 1)


def residue_laws(s: Scroll) -> tuple[dict[str, int], list[str]]:
    """Passes per law and "law: context" failures of the per-residue laws
    (`RESIDUE_LAWS`), each checked at every one of the m*n residues.

    Oracle for verify.check_scroll, which runs those laws on the vector's
    least period and multiplies each count by the laps: this checks each
    tape index t in [1, m*n] (the linearity law each live residue mod
    sigma, by `advance_linear_law`) on its own, reading the letter tables
    mod their length.  The linearity law needs the steps to be maps, so it
    runs only where they are, as in check_scroll.
    """
    n, size, bits = s.n, s.m * s.n, vector(s)
    ctx = f"n={n} seed={s.rows[0]}"
    advance = {x: rows * n + cols for x, (rows, cols) in STEP_SHAPE.items()}
    tables = (*s.step_letters, *s.inverse_letters)

    def letter(k: int, t: int) -> str:  # table k at tape index t
        return tables[k][(t - 1) % len(tables[k])]

    def unique(t: int) -> bool:
        return letter(0, t) in advance and letter(1, t) in advance

    live = [t for t in range(1, size + 1) if bits[t - 1]]
    totals = dict.fromkeys(RESIDUE_LAWS[:5], 0)
    failures: dict[str, list[str]] = {law: [] for law in RESIDUE_LAWS[:5]}
    for t in live:
        totals["six-neighbor zeros"] += 1
        if any(bits[(t - 1 + d) % size] for d in (-n, 1 - n, -1, 1, n - 1, n)):
            failures["six-neighbor zeros"].append(f"{ctx} at ({(t - 1) // n},{(t - 1) % n + 1})")
        totals["unique successor candidates"] += 1
        for k, what in ((0, "successor"), (1, "co-successor")):
            if letter(k, t) not in advance:
                failures["unique successor candidates"].append(
                    f"{ctx}: {what} of live index {t}: {letter(k, t)} live candidates, expected 1"
                )
                break
    for t in live:
        if not unique(t):
            continue
        ts, tc = t + advance[letter(0, t)], t + advance[letter(1, t)]
        if not (unique(ts) and unique(tc)):
            continue
        for law in RESIDUE_LAWS[2:5]:
            totals[law] += 1
        if ts + advance[letter(1, ts)] != tc + advance[letter(0, tc)]:
            failures["commutation"].append(f"{ctx} at tape {t}")
        if letter(0, tc) != letter(0, t) or letter(1, ts) != letter(1, t):
            failures["parallelogram"].append(f"{ctx} at tape {t}")
        back = [letter(k, u) for k, u in ((2, ts), (3, tc))]
        if not all(x in advance for x in back) or (
            ts - advance[back[0]] != t or tc - advance[back[1]] != t
        ):
            failures["predecessor round trip"].append(f"{ctx} at tape {t}")
    passed = {
        law: total - len(failures[law])
        for law, total in totals.items()
        if total > len(failures[law])
    }
    violations = [f"{law}: {context}" for law in RESIDUE_LAWS[:5] for context in failures[law]]
    if s.steps_are_maps:
        linear_passes, nonlinear = advance_linear_law(s)
        if linear_passes:
            passed[RESIDUE_LAWS[5]] = linear_passes
        violations += nonlinear
    return passed, violations


def advance_linear_law(s: Scroll) -> tuple[int, list[str]]:
    """Passes and "law: context" failures of "successor advance linear".

    Oracle for verify.check_scroll, which reads the advance of r*block
    successor steps off the cycles mod the tape period: this steps
    `successor` r*block times from each live residue t mod sigma,
    for r = 1..min(3, deg), and compares the advance with r*p.
    """
    law, met = RESIDUE_LAWS[5], s.metrics
    ctx = f"n={s.n} seed={s.rows[0]}"
    block = len(met.slither) // met.deg
    rounds = range(1, min(3, met.deg) + 1)
    on_sigma = live_residues(s, met.sigma)
    nonlinear = []
    for r in rounds:
        for t in on_sigma:
            u = t
            for _ in range(r * block):
                u = successor(s, u)
            if u - t != r * met.p:
                nonlinear.append(f"{law}: {ctx} r={r} from {t}")
    return len(rounds) * len(on_sigma) - len(nonlinear), nonlinear


def tape_shift_law(s: Scroll) -> tuple[int, list[str]]:
    """Passes and "law: context" failures of "tape shift iff T_tape divides".

    Oracle for verify.check_scroll, which asks whether the vector's least
    period divides each shift: this compares the tape read from each shift
    ell in [1, 3*T_tape] with the tape read from 0, m*n symbols each.
    """
    law, size, period = "tape shift iff T_tape divides", s.m * s.n, s.metrics.T_tape
    ctx = f"n={s.n} seed={s.rows[0]}"
    bits = vector(s)
    reads = (bits[-1:] + bits[:-1]) * (3 * period // size + 2)  # X_t at t
    wrong = [
        ell
        for ell in range(1, 3 * period + 1)
        if (reads[ell : ell + size] == reads[:size]) != (ell % period == 0)
    ]
    return 3 * period - len(wrong), [f"{law}: {ctx} shift {ell}" for ell in wrong]


def free_action_law(s: Scroll) -> tuple[int, list[str]]:
    """Passes and "law: context" failures of "free affine action".

    Oracle for verify.check_scroll, which walks c from each s^a(start)
    toward the start only, on the tape index and row: this walks c^b from
    every s^a(start), |a| <= beta and |b| <= alpha (the counts of the snake
    counts), and compares each (row, column) coordinate with the start.  A
    coordinate (i, j) steps by the shape of the letter at (i*n + j - 1)
    mod its table's length, negated for a negative exponent.
    """
    law, n, part = "free affine action", s.n, s.snakes
    ctx = f"n={n} seed={s.rows[0]}"

    def walk(coord, back, forth, k):  # coordinates after e = -k..k steps
        walks = []
        for letters, sign in ((back, -1), (forth, 1)):
            (i, j), steps = coord, []
            for _ in range(k):
                rows, cols = STEP_SHAPE[letters[(i * n + j - 1) % len(letters)]]
                i, j = i + sign * rows, j + sign * cols
                steps.append((i, j))
            walks.append(steps)
        return walks[0][::-1] + [coord] + walks[1]

    i0, j0 = divmod(vector(s).index(1), n)
    start = (i0, j0 + 1)
    (forth, co_forth), (back, co_back) = s.step_letters, s.inverse_letters
    s_walk = walk(start, back, forth, part.beta)
    fixed, checks = [], 0
    for a, coord in zip(range(-part.beta, part.beta + 1), s_walk):
        c_walk = walk(coord, co_back, co_forth, part.alpha)
        for b, image in zip(range(-part.alpha, part.alpha + 1), c_walk):
            if (a, b) != (0, 0):
                checks += 1
                if image == start:
                    fixed.append(f"{law}: {ctx} exponents ({a},{b})")
    return checks - len(fixed), fixed


def near_row_law(s: Scroll, labels: tuple[list, list] | None = None) -> tuple[int, list[str]]:
    """Passes and "law: context" failures of "near-row co-snake distinctness".

    Oracle for verify.check_scroll, which steps only to the live entries
    within one row span of each live residue mod the tape period and reads
    their co-snakes off the cycles mod that period: this tests every t + d,
    d = 1..n-1, for each live residue t mod sigma, and compares co-snake
    labels where X_(t + d) is live: the labels walked mod sigma
    (`walked_labels`), or labels given, as a fault test injects them.
    """
    law, n, size, sigma = "near-row co-snake distinctness", s.n, s.m * s.n, s.metrics.sigma
    ctx = f"n={n} seed={s.rows[0]}"
    label = (labels or walked_labels(s, sigma))[1]
    near, shared = 0, []
    bits = vector(s)
    for t in live_residues(s, sigma):
        for d in range(1, n):
            if bits[(t + d - 1) % size]:
                near += 1
                if label[(t + d) % sigma] == label[t]:
                    shared.append(f"{law}: {ctx} tape {t}, {t + d}")
    return near - len(shared), shared


def fibers_law(s: Scroll, labels: tuple[list, list] | None = None) -> tuple[int, list[str]]:
    """Passes and "law: context" failures of "fibers are residues mod sigma".

    Oracle for verify.check_scroll, which reads each residue's snake and
    co-snake off the cycles mod the tape period: this groups the live
    residues mod sigma by their snake and co-snake labels, walked mod sigma
    (`walked_labels`) or given, and reports each residue that shares its
    pair.
    """
    law, sigma = "fibers are residues mod sigma", s.metrics.sigma
    ctx = f"n={s.n} seed={s.rows[0]}"
    snake, cosnake = labels or walked_labels(s, sigma)
    live = live_residues(s, sigma)
    pairs = [(snake[t], cosnake[t]) for t in live]
    count = Counter(pairs)
    shared = [f"{law}: {ctx} tape {t}" for t, pair in zip(live, pairs) if count[pair] > 1]
    return len(live) - len(shared), shared


def _palette(labels: list, palette: list) -> dict:
    """Per label of `walked_labels`, a least residue, its palette entry:
    the entries in turn, cycled, in ascending order of the labels."""
    ordered = sorted(set(labels) - {None})
    return {label: palette[i % len(palette)] for i, label in enumerate(ordered)}


def ansi_table(s: Scroll, omega: int) -> str:
    """Oracle for render.ansi_table, which builds one label period of cells
    and each distinct row once, coloured by snake ids: every cell of every
    row of the vector repeated omega times, one at a time, coloured by the
    labels walked mod sigma."""
    bits = vector(s) * omega  # bits[t - 1] is X_t for t in 1..size
    live = list(compress(range(1, len(bits) + 1), bits))
    blocks = []
    for title, labels in zip(("snakes", "co-snakes"), walked_labels(s, s.metrics.sigma)):
        cell = {
            label: f"\x1b[{color}m1\x1b[0m"
            for label, color in _palette(labels, ANSI_COLORS).items()
        }
        chars = ["."] * len(bits)
        for t in live:
            chars[t - 1] = cell[labels[t % len(labels)]]
        rows = ["".join(chars[i:i + s.n]) for i in range(0, len(chars), s.n)]
        blocks.append("\n".join([title + ":", *rows]))
    return "\n\n".join(blocks) + "\n"


def svg_table(s: Scroll, omega: int, labels: list[list] | None = None) -> str:
    """Oracle for render.svg_table, which joins each entry's text from
    pieces built once per column, per colour and per residue mod sigma:
    every live entry of the vector repeated omega times places itself
    and both its targets by tape index, coloured by the labels walked mod
    sigma (`walked_labels`), or labels given, as a fault test walks them
    before it injects a step."""
    unit, n = SVG_UNIT, s.n
    bits = vector(s) * omega  # bits[t - 1] is X_t for t in 1..size
    size = len(bits)
    r = size // n
    snake, cosnake = labels or walked_labels(s, s.metrics.sigma)
    snake_color = _palette(snake, SNAKE_PALETTE)
    cosnake_color = _palette(cosnake, COSNAKE_PALETTE)
    width, height = (n + 2) * unit, (r + 2) * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
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
    live = list(compress(range(1, size + 1), bits))

    # tape index t = i*n + (j+1) sits at ((j+1)*unit, (i+1)*unit)
    def at(t: int) -> tuple[int, int]:
        i, j = divmod(t - 1, n)
        return (j + 1) * unit, (i + 1) * unit

    x_right, x_left = (n + 1) * unit + unit // 2, unit // 2
    for t in live:
        x1, y1 = at(t)
        label = t % len(snake)
        for step, dash, color in (
            (s.successor_step, "", snake_color[snake[label]]),
            (s.co_successor_step, 'stroke-dasharray="4 3"', cosnake_color[cosnake[label]]),
        ):
            u = step(t)[0]
            attrs = f'stroke="{color}" stroke-width="2" {dash} fill="none"'
            x2, y2 = at((u - 1) % size + 1)
            if 1 <= u <= size:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {attrs}/>')
            else:
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x_right}" y2="{y1}" {attrs}/>')
                out.append(f'<circle cx="{x_right}" cy="{y1}" r="3" fill="{color}"/>')
                out.append(f'<line x1="{x_left}" y1="{y2}" x2="{x2}" y2="{y2}" {attrs}/>')
                out.append(f'<circle cx="{x_left}" cy="{y2}" r="3" fill="{color}"/>')
    for t in live:
        x, y = at(t)
        label = t % len(snake)
        out.append(
            f'<circle cx="{x}" cy="{y}" r="{unit // 3}" fill="{snake_color[snake[label]]}" '
            f'stroke="{cosnake_color[cosnake[label]]}" stroke-width="3"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cli_main(argv: list[str]) -> int:
    """Oracle for cli.main, which parses a command's arguments once, with
    that command's parser: the top-level parser parses the whole argv and
    hands the command's arguments on to its parser."""
    args = cli.PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return cli.EXIT_INPUT
    except AssertionError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return cli.EXIT_VIOLATION
