"""Classification of ticker tapes by feasible slither/co-slither pairs.

The letter counts of any scroll satisfy beta_D = 2(alpha_S+alpha_L) - 1
and 2 beta_E + 3 alpha_S + 4 alpha_L = n + 1, and conversely every pair
of cyclic words with feasible counts arises from exactly one tape up to
shift.  The first row is rebuilt by inverting the subslither calculus:
tokenize the slither as (E | D E* D)* D E*, then let the co-slither
letters fix the gap parities.

Each record's tape is built without simulating the orbit.  The snake
and ouroboros groups act on the live entries as torsors, so with the
first row live in column 1 the live set mod T_tape is {A_a + B_b}, A_a
the tape advance of the first a letters of the row's slither and B_b the
same for its co-slither: one period is the OR of the slither-prefix mask
rotated by each co-slither prefix.  It must follow the sweep read as a
tape, X_{t+n} = NOR(X_{t+n-1}, X_t, X_{t+1}), at every offset, start with
the first row and have least period T_tape; the recurrence and the row
then fix the whole tape.  `canonical_binary` gives its least rotation,
and the fundamental vector is that repeated lcm(T_tape, n) / T_tape times
(the least rotation of a power is the power of the least rotation).
`canonical_tape` still reads the simulated orbit rows with Booth's
`canonical`: `verify` compares the two paths.

The slithers and co-slithers of a quadruple are its fixed-content
necklaces (`necklaces`), and each of the two word lists is built once per
quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cycles import is_independent
from .cyclic import canonical, canonical_binary, cyclically_equal, least_period
from .necklaces import necklaces_fixed_content
from .scroll import Scroll
from .slither import ScrollMetrics, metrics_from_row, step_advance


@dataclass(frozen=True, order=True)
class FeasibleQuadruple:
    beta_e: int
    alpha_s: int
    alpha_l: int
    beta_d: int

    @property
    def alpha(self) -> int:
        return self.alpha_s + self.alpha_l

    @property
    def beta(self) -> int:
        return self.beta_d + self.beta_e


def feasible_quadruples(n: int) -> list[FeasibleQuadruple]:
    """All (beta_E, alpha_S, alpha_L, beta_D) with alpha > 0 for this n."""
    out = []
    for alpha_s in range(0, (n + 1) // 3 + 1):
        for alpha_l in range(0, (n + 1) // 4 + 1):
            if alpha_s + alpha_l == 0:
                continue
            rest = n + 1 - 3 * alpha_s - 4 * alpha_l
            if rest < 0 or rest % 2 == 1:
                continue
            beta_d = 2 * (alpha_s + alpha_l) - 1
            out.append(FeasibleQuadruple(rest // 2, alpha_s, alpha_l, beta_d))
    return sorted(out)


def gf_count(n: int) -> int:
    """Coefficient of x^(n+1) in (1/(1-x^2)) * (1/((1-x^3)(1-x^4)) - 1).

    Computed as a partition-count DP: solutions of 2a+3b+4c = n+1 with
    (b, c) != (0, 0).
    """
    target = n + 1
    ways = [0] * (target + 1)
    ways[0] = 1
    for part in (2, 3, 4):
        for v in range(part, target + 1):
            ways[v] += ways[v - part]
    # subtract the pure-2 solutions (b = c = 0)
    return ways[target] - (1 if target % 2 == 0 else 0)


def _parse_tokens(word: str):
    """Tokenize a slither as (E | D E* D)* D E*; its D count must be odd."""
    last_d = word.rfind("D")
    trailing_e = len(word) - 1 - last_d
    tokens = []
    i = 0
    while i < last_d:
        if word[i] == "E":
            tokens.append(("E", 0))
            i += 1
            continue
        j = word.find("D", i + 1)
        tokens.append(("D", j - i - 1))
        i = j + 1
    return tokens, trailing_e


def construct_first_row(ws: str, wc: str, n: int) -> str:
    """First row of the tape defined by a feasible pair of cyclic words.

    Raises ValueError unless ws is over D/E, wc over S/L, and the letter
    counts satisfy beta_D = 2 alpha - 1 and 2 beta_E + 3 alpha_S +
    4 alpha_L = n + 1.  An odd D count lets every rotation of the slither
    parse; which rotations of the two words are given only shifts the
    resulting tape.
    """
    if not set(ws) <= {"D", "E"} or not set(wc) <= {"S", "L"}:
        raise ValueError(
            f"slither {ws!r} must be over D/E and co-slither {wc!r} over S/L"
        )
    beta_d, beta_e = ws.count("D"), ws.count("E")
    alpha_s, alpha_l = wc.count("S"), wc.count("L")
    if beta_d != 2 * len(wc) - 1:
        raise ValueError(
            f"slither has {beta_d} D; a co-slither of length {len(wc)} "
            f"needs {2 * len(wc) - 1}"
        )
    weight = 2 * beta_e + 3 * alpha_s + 4 * alpha_l
    if weight != n + 1:
        raise ValueError(f"letter counts give 2E + 3S + 4L = {weight}, not n + 1 = {n + 1}")
    tokens, trailing_e = _parse_tokens(ws)

    inner_d = [idx for idx, (kind, _) in enumerate(tokens) if kind == "D"]
    trailing_z = 2 * trailing_e + (1 if wc[0] == "S" else 2)
    # remaining letters fix the inner D-gaps from rightmost to leftmost
    gap_z: dict[int, int] = {}
    for letter, idx in zip(wc[1:], reversed(inner_d)):
        _, r = tokens[idx]
        gap_z[idx] = 2 * r + (2 if letter == "S" else 3)

    parts = ["1"]
    for idx, (kind, _) in enumerate(tokens):
        z = 1 if kind == "E" else gap_z[idx]
        parts.append("0" * z + "1")
    parts.append("0" * trailing_z)
    row = "".join(parts)
    if len(row) != n:
        raise AssertionError(
            f"constructed row has length {len(row)}, expected {n}"
        )
    if not is_independent(row):
        raise AssertionError(f"constructed row is not independent: {row!r}")
    return row


def tape_period(row: str, met: ScrollMetrics) -> str:
    """The first T_tape symbols of the tape whose first row is row.

    row must be live in column 1 and met its metrics.  The live set mod
    T_tape is read off the torsor and checked by `checked_period`.
    """
    n, size = len(row), met.T_tape
    advance = {k: step_advance(k, n) % size for k in "DESL"}
    # bit i of a mask is tape index i (0-based) mod size
    slither_mask, t = 0, 0
    for letter in met.slither.word:
        slither_mask |= 1 << t
        t = (t + advance[letter]) % size
    doubled = slither_mask | (slither_mask << size)
    period, t = 0, 0
    for letter in met.coslither.word:
        period |= doubled >> (size - t)  # the mask rotated by t
        t = (t + advance[letter]) % size
    return checked_period(row, period & ((1 << size) - 1), size)


def checked_period(row: str, period: int, size: int) -> str:
    """The size-bit integer period (bit i is tape index i) as a 0/1 word.

    Raises AssertionError unless the period follows the sweep recurrence
    at every offset, starts with row, and has least period size: then it
    is one period of the tape whose first row is row.
    """
    n = len(row)
    full = (1 << size) - 1
    doubled = period | (period << size)

    def ahead(k: int) -> int:  # bit i is tape index i + k
        return (doubled >> (k % size)) & full

    if ahead(n) != full & ~(ahead(n - 1) | period | ahead(1)):
        raise AssertionError(f"period of row {row!r} breaks the sweep recurrence")
    word = format(period, f"0{size}b")[::-1]
    if (word * (n // size + 1))[:n] != row:
        raise AssertionError(f"period of row {row!r} does not start with the row")
    if least_period(word) != size:
        raise AssertionError(
            f"tape of row {row!r} has least period {least_period(word)}, not {size}"
        )
    return word


def canonical_tape(s: Scroll) -> str:
    """Least rotation of the fundamental orbit vector."""
    return canonical("".join(s.base.rows))


@dataclass(frozen=True)
class TapeClass:
    quadruple: FeasibleQuadruple
    slither: str  # necklace representative
    coslither: str
    first_row: str
    tape: str  # canonical rotation of the fundamental orbit vector


def slither_necklaces(quad: FeasibleQuadruple) -> list[str]:
    return necklaces_fixed_content("D", "E", quad.beta_d, quad.beta_e)


def coslither_necklaces(quad: FeasibleQuadruple) -> list[str]:
    return necklaces_fixed_content("S", "L", quad.alpha_s, quad.alpha_l)


def enumerate_ticker_tapes(n: int) -> list[TapeClass]:
    """One record per ticker tape of width n, up to cyclic shift."""
    if n < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    records: list[TapeClass] = []
    for quad in feasible_quadruples(n):
        coslithers = coslither_necklaces(quad)
        for ws in slither_necklaces(quad):
            for wc in coslithers:
                row = construct_first_row(ws, wc, n)
                met = metrics_from_row(row, n)
                # round trip guards the construction
                back_s = met.slither.word
                back_c = met.coslither.word
                if not cyclically_equal(back_s, ws) or not cyclically_equal(back_c, wc):
                    raise AssertionError(
                        f"round trip failed for ({ws}, {wc}) at n={n}"
                    )
                period = met.T_tape
                tape = canonical_binary(tape_period(row, met)) * (lcm(period, n) // period)
                records.append(TapeClass(quad, ws, wc, row, tape))
    tapes = {rec.tape for rec in records}
    if len(tapes) != len(records):
        raise AssertionError(
            f"n={n}: {len(records)} necklace pairs but {len(tapes)} distinct tapes"
        )
    return records
