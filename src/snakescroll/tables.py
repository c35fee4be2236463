"""Finite orbit tables: ouroboroi, swallow permutations, group invariants.

An omega-fold orbit table stacks omega copies of the fundamental orbit;
successor and co-successor descend to it by the reduction that gives the
snakes, at another modulus: the tape index modulo the table size
omega*m*n instead of sigma.  Their cycles there are the ouroboroi and
co-ouroboroi.  A table covers the tape period T, so their counts are
lifted, not walked: a cycle mod T of winding w (summed advance w*T) splits
into gcd(w, omega*m*n/T) cycles of the table, one per orbit of the
translation by w*T on the cycle's fibre (`scroll.lifted_counts`).  No
table walks or labels its cycles.

`omega_table` computes a table's scalars once, when it builds it: its
size omega*m*n, its live count eta, its counts bar_alpha and bar_beta and
its degrees deg p_omega = alpha/bar_alpha and codeg p_omega =
beta/bar_beta.  It reads them off constants each scroll keeps for every
omega: its live count (`Scroll.live_count`), its windings mod T
(`Scroll.windings`) and its snake counts (`Scroll.snakes`).  Every helper
here reads those scalars and builds nothing of size omega*m*n.

The live residues form a torsor of the finite abelian group generated by
the two maps mod the table size; the torsor law of `verify` checks that in
bar_beta successor steps, each placed on its co-successor orbit through
the same covering, with no walk of size eta.  The group has rank at most
two, so its invariant factors are two gcds of its presentation
(`group_invariants`); the test suite's group oracle reads them off the
steps reduced mod the table size instead.  Covering degrees
(`Scroll.fundamental_degrees`), predicted counts (from
`Scroll.fundamental_counts`) and swallows are closed forms in the scroll's
metrics; the lifted cycle counts are what they are checked against.  A
swallow's walk order does not depend on omega: it is the tape indices of
the scroll's one co-slither (slither) walk (`Scroll.coslither_walk`,
`Scroll.slither_walk`), and a swallow reads the label of each index and
of its image in the scroll's label arrays mod sigma
(`Scroll.snake_labels`, read off its cycles mod T).

A caller builds one table per omega with `omega_table` (`verify.check_tables`
per omega, the `orbit` command per request) and hands it, with its two
swallows where needed, to every helper here: no helper builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scroll import Scroll, lifted_counts


@dataclass
class OrbitTable:
    """The omega-fold table of a scroll and its scalars, each computed once
    by `omega_table`; every helper reads them."""

    scroll: Scroll
    omega: int
    size: int  # omega*m*n residues
    eta: int  # live entries: omega copies of the m*n residues'
    alpha: int  # bar_alpha, the ouroboroi
    beta: int  # bar_beta, the co-ouroboroi
    deg: int  # deg p_omega = alpha / bar_alpha
    codeg: int  # codeg p_omega = beta / bar_beta

    @property
    def r(self) -> int:
        return self.omega * self.scroll.m


def omega_table(s: Scroll, omega: int) -> OrbitTable:
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    size = omega * s.m * s.n
    alpha, beta = lifted_counts(s, size // s.metrics.T_tape)
    snakes = s.snakes
    deg, codeg = snakes.alpha // alpha, snakes.beta // beta
    return OrbitTable(s, omega, size, omega * s.live_count, alpha, beta, deg, codeg)


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega): alpha / deg p_1 and
    beta / codeg p_1 at omega = 1, times gcd(deg p_1, omega), gcd(codeg p_1, omega)."""
    (alpha_1, beta_1), (deg_p1, codeg_p1) = s.fundamental_counts, s.fundamental_degrees
    return alpha_1 * gcd(deg_p1, omega), beta_1 * gcd(codeg_p1, omega)


@dataclass(slots=True)
class SwallowPermutation:
    """A permutation of snake labels in their cyclic traversal order."""

    order: tuple[int, ...]  # labels in cyclic order
    shift: int  # uniform shift k with image(order[i]) = order[i+k]

    @property
    def cycle_type(self) -> tuple[int, ...]:
        size = len(self.order)
        cycles = gcd(self.shift, size)
        return (size // cycles,) * cycles

    @property
    def is_identity(self) -> bool:
        return self.shift == 0


def _swallow(t: OrbitTable, labels: list, indices: list[int]) -> SwallowPermutation:
    """The labels of the tape indices k, in their cyclic order, each mapped
    to the label of k - size, both read off labels (indexed by residue mod
    its length): translation by the table size commutes with both steps.
    The image must be a uniform shift of that order; its shift is stored."""
    size, modulus = t.size, len(labels)
    order = [labels[k % modulus] for k in indices]
    if len(set(order)) != len(order):
        raise AssertionError("step map does not traverse all labels once")
    image = [labels[(k - size) % modulus] for k in indices]
    shift = order.index(image[0])
    if image != order[shift:] + order[:shift]:
        raise AssertionError("swallow permutation is not a uniform shift")
    return SwallowPermutation(tuple(order), shift)


def swallow(t: OrbitTable) -> SwallowPermutation:
    """Permutation of snakes induced by stepping past each omega-head."""
    s = t.scroll
    # snakes are traversed once per co-slither cycle: order by co-successor
    return _swallow(t, s.snake_labels[0], s.coslither_walk[0])


def co_swallow(t: OrbitTable) -> SwallowPermutation:
    s = t.scroll
    # co-snakes are traversed once per slither cycle: order by successor
    return _swallow(t, s.snake_labels[1], s.slither_walk[0])


@dataclass(slots=True)
class GroupInvariants:
    factors: tuple[int, int]  # invariant factors d1 | d2, possibly with d1 = 1
    ouro: tuple[int, int]  # (bar_alpha, eta/bar_alpha)
    co_ouro: tuple[int, int]  # (bar_beta, eta/bar_beta)

    @property
    def order(self) -> int:
        return self.factors[0] * self.factors[1]

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)

    # invariant factors of Z_bar_alpha x Z_(eta/bar_alpha); the group's own
    # are those of Z_g x Z_(eta/g), g = gcd(bar_alpha, bar_beta), so they
    # agree exactly when gcd(bar_alpha, eta/bar_alpha) = g
    @property
    def ouro_product(self) -> tuple[int, ...]:
        return product_invariants(*self.ouro)

    # likewise Z_bar_beta x Z_(eta/bar_beta): agrees exactly when
    # gcd(bar_beta, eta/bar_beta) = g
    @property
    def co_ouro_product(self) -> tuple[int, ...]:
        return product_invariants(*self.co_ouro)

    # both pairs are (x, y) with 1 <= x | y (an ouroboros holds a live
    # entry, so bar_alpha <= eta), so they agree exactly when their
    # nontrivial factors do
    @property
    def matches_ouro_product(self) -> bool:
        return self.factors == _product_pair(*self.ouro)

    @property
    def matches_co_ouro_product(self) -> bool:
        return self.factors == _product_pair(*self.co_ouro)


def _product_pair(a: int, b: int) -> tuple[int, int]:
    """(gcd, lcm) of a and b: the invariant factors of Z_a x Z_b, with 1s."""
    d = gcd(a, b)
    return d, a * b // d


def product_invariants(a: int, b: int) -> tuple[int, ...]:
    """Invariant factors of Z_a x Z_b."""
    return tuple(d for d in _product_pair(a, b) if d > 1)


def group_invariants(t: OrbitTable) -> GroupInvariants:
    """Invariant factors of <s, c | sc=cs, s^beta=c^alpha, s^(eta/a)=c^(eta/b)=1>.

    The relation matrix has two columns, so its invariant factors are its
    determinantal divisors (H. J. S. Smith, 1861): d1 is the gcd of its
    entries, and d1*d2 the gcd of its three 2x2 minors, which must be eta.
    The presentation describes the actual permutation group generated by
    the two maps mod the table size (checked against a torsor oracle in the
    test suite).  Simple transitivity gives order eta, ord s = eta/bar_alpha
    and ord c = eta/bar_beta, so the group is Z_g x Z_(eta/g) with
    g = gcd(bar_alpha, bar_beta).  The two product decompositions are
    reported alongside as evidence fields rather than assertions:
    Z_bar_alpha x Z_(eta/bar_alpha) agrees exactly when
    gcd(bar_alpha, eta/bar_alpha) = g, Z_bar_beta x Z_(eta/bar_beta)
    exactly when gcd(bar_beta, eta/bar_beta) = g.
    """
    snakes, eta = t.scroll.snakes, t.eta
    ord_s, ord_c = eta // t.alpha, eta // t.beta
    # rows (beta, -alpha), (ord_s, 0), (0, ord_c)
    d1 = gcd(snakes.alpha, snakes.beta, ord_s, ord_c)
    order = gcd(snakes.alpha * ord_s, snakes.beta * ord_c, ord_s * ord_c)
    if order != eta:
        raise AssertionError(f"group order {order} != live count {eta}")
    return GroupInvariants((d1, order // d1), (t.alpha, ord_s), (t.beta, ord_c))


def table_slither(t: OrbitTable) -> str:
    """Length bar_beta step word; its codeg(p_omega) power is the scroll slither."""
    return t.scroll.metrics.slither.word[: t.beta]


def table_coslither(t: OrbitTable) -> str:
    return t.scroll.metrics.coslither.word[: t.alpha]


def is_color_preserving(t: OrbitTable, sw: SwallowPermutation, cs: SwallowPermutation) -> bool:
    """Evaluate the five equivalent conditions on table t, whose swallow and
    co-swallow are sw and cs; assert they agree."""
    s = t.scroll
    snakes = s.snakes
    deg_p1, codeg_p1 = s.fundamental_degrees
    counts = t.alpha == snakes.alpha and t.beta == snakes.beta
    swallows = sw.is_identity and cs.is_identity
    bijection = t.deg == 1 and t.codeg == 1
    scale = t.size % s.metrics.sigma == 0
    frequency = t.omega % (deg_p1 * codeg_p1) == 0
    if counts == swallows == bijection == scale == frequency:
        return counts
    conditions = dict(
        counts=counts, swallows=swallows, bijection=bijection, scale=scale, frequency=frequency
    )
    raise AssertionError(f"color-preserving conditions disagree: {conditions}")
