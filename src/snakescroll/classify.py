"""Classification of ticker tapes by feasible slither/co-slither pairs.

The letter counts of any scroll satisfy beta_D = 2(alpha_S+alpha_L) - 1
and 2 beta_E + 3 alpha_S + 4 alpha_L = n + 1, and conversely every pair
of cyclic words with feasible counts arises from exactly one tape up to
shift.  The first row is rebuilt by inverting the subslither calculus:
tokenize the slither as (E | D E* D)* D E*, then let the co-slither
letters fix the gap parities.

Each record's tape is built without simulating the orbit.  Read as a
tape, the sweep is the recurrence X_{t+n} = NOR(X_{t+n-1}, X_t, X_{t+1}),
so the first row determines every later symbol; only one period, the
first T_tape symbols, is built, checked to repeat with least period
T_tape, and canonicalised.  The fundamental vector is that period
repeated lcm(T_tape, n) / T_tape times, and the least rotation of a power
is the power of the least rotation.  `canonical_tape` still reads the
simulated orbit rows: `verify` compares the two paths.

The slithers and co-slithers of a quadruple are its fixed-content
necklaces (`necklaces`), and each of the two word lists is built once per
quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cycles import is_independent
from .cyclic import canonical, cyclically_equal, least_period
from .necklaces import necklaces_fixed_content
from .scroll import Scroll
from .slither import metrics_from_row


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


def tape_prefix(row: str, period: int) -> str:
    """The first `period` tape symbols of the scroll whose first row is row.

    Raises AssertionError unless the tape has least period `period`: the
    n symbols after the prefix must repeat the first row, and the prefix
    must not be a power of a shorter word.
    """
    n = len(row)
    x = [int(b) for b in row]
    for s in range(n, period + n):
        x.append(1 - (x[s - 1] | x[s - n] | x[s - n + 1]))
    if x[period:] != x[:n]:
        raise AssertionError(f"tape of row {row!r} does not repeat after {period}")
    prefix = "".join(map(str, x[:period]))
    if least_period(prefix) != period:
        raise AssertionError(
            f"tape of row {row!r} has least period {least_period(prefix)}, not {period}"
        )
    return prefix


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
                tape = canonical(tape_prefix(row, period)) * (lcm(period, n) // period)
                records.append(TapeClass(quad, ws, wc, row, tape))
    tapes = {rec.tape for rec in records}
    if len(tapes) != len(records):
        raise AssertionError(
            f"n={n}: {len(records)} necklace pairs but {len(tapes)} distinct tapes"
        )
    return records
