"""Classification of ticker tapes by feasible slither/co-slither pairs.

The letter counts of any scroll satisfy beta_D = 2(alpha_S+alpha_L) - 1
and 2 beta_E + 3 alpha_S + 4 alpha_L = n + 1, and conversely every pair
of cyclic words with feasible counts arises from exactly one tape up to
shift.  The first row is rebuilt by inverting the subslither calculus:
tokenize the slither as (E | D E* D)* D E*, then let the co-slither
letters fix the gap parities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import is_independent
from .cyclic import canonical, cyclically_equal, rotations
from .necklaces import necklaces_fixed_content
from .scroll import Scroll, scroll_from_seed
from .slither import coslither_from_row, slither_from_row


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
    """Tokenize a slither rotation as (E | D E* D)* D E*, or None."""
    last_d = word.rfind("D")
    if last_d < 0:
        return None
    trailing_e = len(word) - 1 - last_d
    prefix = word[:last_d]
    tokens = []
    i = 0
    while i < len(prefix):
        if prefix[i] == "E":
            tokens.append(("E", 0))
            i += 1
            continue
        j = prefix.find("D", i + 1)
        if j < 0:
            return None
        tokens.append(("D", j - i - 1))
        i = j + 1
    return tokens, trailing_e


def construct_first_row(ws: str, wc: str, n: int) -> str:
    """First row of the tape defined by a feasible pair of cyclic words.

    The slither is rotated to a grammar-valid rotation first; which
    rotations of either word are used only shifts the resulting tape.
    """
    parsed = None
    for rot in rotations(ws):
        parsed = _parse_tokens(rot)
        if parsed is not None:
            break
    if parsed is None:
        raise ValueError(f"slither word {ws!r} admits no grammar rotation")
    tokens, trailing_e = parsed

    inner_d = [idx for idx, (kind, _) in enumerate(tokens) if kind == "D"]
    if len(wc) != len(inner_d) + 1:
        raise ValueError(
            f"co-slither length {len(wc)} does not match {len(inner_d)} inner gaps + 1"
        )
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
            f"constructed row has length {len(row)}, expected {n}: pair infeasible?"
        )
    if not is_independent(row):
        raise AssertionError(f"constructed row is not independent: {row!r}")
    return row


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
    records: list[TapeClass] = []
    for quad in feasible_quadruples(n):
        for ws in slither_necklaces(quad):
            for wc in coslither_necklaces(quad):
                row = construct_first_row(ws, wc, n)
                scr = scroll_from_seed(row)
                # round trip guards the construction
                back_s = slither_from_row(row).word
                back_c = coslither_from_row(row).word
                if not cyclically_equal(back_s, ws) or not cyclically_equal(back_c, wc):
                    raise AssertionError(
                        f"round trip failed for ({ws}, {wc}) at n={n}"
                    )
                records.append(TapeClass(quad, ws, wc, row, canonical_tape(scr)))
    tapes = {rec.tape for rec in records}
    if len(tapes) != len(records):
        raise AssertionError(
            f"n={n}: {len(records)} necklace pairs but {len(tapes)} distinct tapes"
        )
    return records
