"""Column-sum vectors of orbit tables and the period-lambda constructions.

The sum vector of the omega = 1 table is read off the tape's least period
(`Scroll.unit`): the table's rows concatenated are that period repeated,
so no table or full vector is built here.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .classify import construct_first_row, feasible_quadruples
from .cyclic import least_period
from .cycles import orbit
from .scroll import Scroll


class SumVector(NamedTuple):
    sums: tuple[int, ...]
    lam: int  # least cyclic period


def sum_vector(s: Scroll) -> SumVector:
    """Column sums of the omega = 1 table, read off the tape's least period.

    Column j is X_(j+1), X_(j+1+n), ..., m symbols of the tape, which is the
    unit (length P) repeated; with g = gcd(n, P), the column meets each residue mod P
    that is j mod g equally often, m*g/P times.  So the sums repeat with
    period g, and column j is (m*g/P)*sum(unit[j mod g :: g]).
    """
    unit, n = s.unit, s.n
    g = gcd(n, len(unit))
    scale = s.m * g // len(unit)
    block = [scale * sum(unit[j::g]) for j in range(g)]
    # least_period reads a string: one character per column sum; the sums
    # are the block repeated, so their least period is the block's
    return SumVector(tuple(block * (n // g)), least_period("".join(map(chr, block))))


def col_scale(s: Scroll) -> int:
    """Scale mod n, beta_D + 2 beta_E; the count identities make it equal
    n - alpha_S - 2 alpha_L and sigma mod n."""
    ws = s.metrics.slither
    return ws.count("D") + 2 * ws.count("E")


def period_lambda_words(lam: int, k: int) -> tuple[str, str]:
    """The slither/co-slither pair whose orbit table has sum period lam."""
    if lam % 2 == 0 or lam < 3:
        raise ValueError("construction targets odd lambda >= 3")
    if k < 4:
        raise ValueError("k must be at least 4")
    if k % 2 == 0:
        ws = "D" * (lam - 2) + "E" + "D" * 2 + "E" * (lam * k // 2 - lam - 1)
        wc = "S" + "L" * ((lam - 1) // 2)
    else:
        ws = "D" * (2 * lam + 1) + "E" * (((k - 4) * lam - 1) // 2)
        wc = "S" * 2 + "L" * (lam - 1)
    return ws, wc


def _constant_sum_seed(n: int) -> str:
    # Any pair with gcd(n, ColScale) = 1 forces sum period 1.  One always
    # exists: (alpha_S, alpha_L) = (0, 1) has ColScale n - 2 for odd n, and
    # (1, 0) has n - 1 for even n
    quad = next(q for q in feasible_quadruples(n) if gcd(n, q.beta_d + 2 * q.beta_e) == 1)
    ws = "D" * quad.beta_d + "E" * quad.beta_e
    wc = "S" * quad.alpha_s + "L" * quad.alpha_l
    return construct_first_row(ws, wc, n)


def construct_period_lambda(lam: int, k: int) -> Scroll:
    """A scroll with n = k*lambda whose sum vector has period exactly lambda.

    lambda = 1 falls back to any constant-sum orbit; the two-case word
    construction needs lambda >= 3.
    """
    if lam < 1 or lam % 2 == 0:
        raise ValueError("lambda must be a positive odd integer")
    if k < 4:
        raise ValueError("k must be at least 4")
    n = lam * k
    if lam == 1:
        seed = _constant_sum_seed(n)
    else:
        ws, wc = period_lambda_words(lam, k)
        seed = construct_first_row(ws, wc, n)
    s = orbit(seed)
    achieved = sum_vector(s).lam
    if achieved != lam:
        raise AssertionError(
            f"construction for (lambda={lam}, k={k}) achieved period {achieved}"
        )
    return s
