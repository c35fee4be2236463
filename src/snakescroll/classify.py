"""Classification of ticker tapes by feasible slither/co-slither pairs.

The letter counts of any scroll satisfy beta_D = 2(alpha_S+alpha_L) - 1
and 2 beta_E + 3 alpha_S + 4 alpha_L = n + 1, and conversely every pair
of cyclic words with feasible counts arises from exactly one tape up to
shift.

That tape is built from the two words alone, without simulating the
orbit.  The snake and ouroboros groups act on the live entries as
torsors, so with tape index 0 the live entry where both words start, the
live set mod T_tape is {A_a + B_b}, A_a the tape advance of the first a
letters of the slither and B_b the same for the co-slither: one period is
the OR of the slither-prefix mask rotated by each co-slither prefix.  It
must follow the sweep read as a tape, X_{t+n} = NOR(X_{t+n-1}, X_t,
X_{t+1}), at every offset and have least period T_tape.  The first row is
the period's window, its first n symbols, and must read back exactly the
two words it was built from (`words_from_row`).  No class builds a
`ScrollMetrics`: the scale sigma = 2 beta_E + (n+1) beta_D depends on the
letter counts alone, so it is computed once per quadruple, and each
class's T_tape is gcd(sigma / deg, sigma / codeg), deg and codeg the
exponents of its two words, as in `metrics_from_words`.  The two count
identities make sigma equal the co-slither form (2n-1) alpha_S +
(2n-2) alpha_L, so no class checks it.  A class keeps the period's
least rotation (`canonical_binary`), and its tape, the fundamental
vector's, is that repeated lcm(T_tape, n) / T_tape times when read (the
least rotation of a power is the power of the least rotation).  `verify`
compares these periods with the least periods of the simulated orbits,
each in its least rotation.

The slithers and co-slithers of a quadruple are its fixed-content
necklaces, generated over their gaps (`necklaces`), and each of the two
word lists is built once per quadruple.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .cyclic import canonical_binary, exponent, least_period
from .necklaces import necklaces_fixed_content
from .slither import metrics_from_words, step_advances, words_from_row


class FeasibleQuadruple(NamedTuple):
    beta_e: int
    alpha_s: int
    alpha_l: int
    beta_d: int


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


def construct_first_row(ws: str, wc: str, n: int) -> str:
    """First row of the tape defined by a feasible pair of cyclic words.

    Raises ValueError unless n >= 2, ws is over D/E, wc is a nonempty
    word over S/L, and the letter counts satisfy beta_D = 2 alpha - 1 and
    2 beta_E + 3 alpha_S + 4 alpha_L = n + 1.  The row is the first n
    symbols of the torsor period; which rotations of the two words are
    given only shifts the resulting tape, and the row reads back exactly
    the words given.
    """
    if n < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    if not set(ws) <= {"D", "E"} or not set(wc) <= {"S", "L"}:
        raise ValueError(
            f"slither {ws!r} must be over D/E and co-slither {wc!r} over S/L"
        )
    if not wc:  # every feasible pair has alpha = alpha_S + alpha_L >= 1
        raise ValueError("co-slither is empty; it needs at least one S or L")
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
    met = metrics_from_words(ws, wc, n)
    return _window(tape_period(ws, wc, met.T_tape, n), n)


def _window(period: str, n: int) -> str:
    """The first n symbols of the tape with this period: its first row.  It
    is independent: `checked_period` holds the period to the sweep
    recurrence X_(t+n) = NOR(X_(t+n-1), X_t, X_(t+1)) at every offset, so
    a 0 follows each 1 one place and n - 1 places on, the next column and,
    from column n, column 1 of the row."""
    return (period * (n // len(period) + 1))[:n]


def tape_period(ws: str, wc: str, size: int, n: int) -> str:
    """The first size = T_tape symbols of the tape with slither ws and
    co-slither wc.

    Tape index 0 is the live entry where both words start.  The live set
    mod T_tape is read off the torsor, on the letters' advances at width n
    (`step_advances`) summed mod size, and checked by `checked_period`.
    """
    advance = step_advances(n)[0]
    # bit i of a mask is tape index i (0-based) mod size
    slither_mask, t = 0, 0
    for letter in ws:
        slither_mask |= 1 << t
        t = (t + advance[letter]) % size
    doubled = slither_mask | (slither_mask << size)
    period, t = 0, 0
    for letter in wc:
        period |= doubled >> (size - t)  # the mask rotated by t
        t = (t + advance[letter]) % size
    return checked_period(period & ((1 << size) - 1), size, n)


def checked_period(period: int, size: int, n: int) -> str:
    """The size-bit integer period (bit i is tape index i) as a 0/1 word.

    Raises AssertionError unless the period follows the sweep recurrence
    of width n at every offset and has least period size: then it is one
    period of the tape whose first row is its first n symbols.
    """
    full = (1 << size) - 1
    doubled = period | (period << size)

    def ahead(k: int) -> int:  # bit i is tape index i + k
        return (doubled >> (k % size)) & full

    word = format(period, f"0{size}b")[::-1]
    if ahead(n) != full & ~(ahead(n - 1) | period | ahead(1)):
        raise AssertionError(f"period {word} breaks the sweep recurrence at n={n}")
    if least_period(word) != size:
        raise AssertionError(
            f"tape period {word} has least period {least_period(word)}, not {size}"
        )
    return word


class TapeClass(NamedTuple):
    quadruple: FeasibleQuadruple
    slither: str  # necklace representative
    coslither: str
    first_row: str
    period: str  # least rotation of one least tape period

    @property
    def tape(self) -> str:
        """Canonical rotation of the fundamental orbit vector."""
        size, n = len(self.period), len(self.first_row)
        return self.period * (lcm(size, n) // size)


def enumerate_ticker_tapes(n: int) -> list[TapeClass]:
    """One record per ticker tape of width n, up to cyclic shift."""
    if n < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    records: list[TapeClass] = []
    for quad in feasible_quadruples(n):
        # the scale sigma depends on the letter counts alone
        sigma = 2 * quad.beta_e + (n + 1) * quad.beta_d
        # each word with its scale: p = sigma / deg, q = sigma / codeg
        coslithers = [
            (wc, sigma // exponent(wc))
            for wc in necklaces_fixed_content("S", "L", quad.alpha_s, quad.alpha_l)
        ]
        for ws in necklaces_fixed_content("D", "E", quad.beta_d, quad.beta_e):
            p = sigma // exponent(ws)
            for wc, q in coslithers:
                period = tape_period(ws, wc, gcd(p, q), n)
                row = _window(period, n)
                # the row must read back exactly the words it was built from
                if words_from_row(row, n) != (ws, wc):
                    raise AssertionError(
                        f"round trip failed for ({ws}, {wc}) at n={n}"
                    )
                records.append(TapeClass(quad, ws, wc, row, canonical_binary(period)))
    # for a fixed n a tape is its primitive canonical period repeated
    # lcm(T_tape, n) / T_tape times, so tapes are distinct iff those periods are
    distinct = len({rec.period for rec in records})
    if distinct != len(records):
        raise AssertionError(
            f"n={n}: {len(records)} necklace pairs but {distinct} distinct tapes"
        )
    return records
