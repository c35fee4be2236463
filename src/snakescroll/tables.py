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

A table is its scalars: its size omega*m*n, its live count eta, its
counts bar_alpha and bar_beta and its degrees deg p_omega =
alpha/bar_alpha and codeg p_omega = beta/bar_beta, read off constants
each scroll keeps for every omega: its size m*n (`Scroll.size`), its live
count (`Scroll.live_count`), its windings mod T (`Scroll.windings`) and
its snake counts (`Scroll.snakes`).  Each per-table value has one scalar
implementation here, a function of the scroll and those scalars: the
swallow shifts (`swallow_shift`), the invariant factors
(`group_factors`), the colour-preserving conditions
(`color_preserving`) and the table words (`table_words`).
`verify.check_tables` calls them directly for every omega.

The live residues form a torsor of the finite abelian group generated by
the two maps mod the table size; the torsor law of `verify` checks that in
bar_beta successor steps, each placed on its co-successor orbit through
the same covering, with no walk of size eta.  The group has rank at most
two, so its invariant factors are two gcds of its presentation
(`group_factors`); the test suite's group oracle reads them off the
steps reduced mod the table size instead.  Covering degrees
(`Scroll.fundamental_degrees`), predicted counts (from
`Scroll.fundamental_counts`) and swallows are closed forms in the scroll's
metrics; the lifted cycle counts are what they are checked against.  A
swallow's walk order does not depend on omega: it is the labels, in the
scroll's label arrays mod sigma (`Scroll.snake_labels`, read off its
cycles mod T), of the tape indices of the scroll's one co-slither
(slither) walk (`Scroll.coslither_walk`, `Scroll.slither_walk`), kept
once per scroll (`Scroll.swallow_orders`); a swallow reads the label of
each index's image.

The records `OrbitTable` (built by `omega_table`), `SwallowPermutation`
(`swallow`, `co_swallow`) and `GroupInvariants` (`group_invariants`), and
`is_color_preserving`, `table_slither` and `table_coslither`, are thin
builders over the scalar cores, for the `orbit` command's report and
renderers: one table per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scroll import Scroll, lifted_counts


@dataclass(slots=True)
class OrbitTable:
    """The omega-fold table of a scroll and its scalars, each computed once
    by `omega_table`; the record helpers read them."""

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
    alpha, beta = lifted_counts(s, omega * s.size // s.metrics.T_tape)
    snakes = s.snakes
    deg, codeg = snakes.alpha // alpha, snakes.beta // beta
    return OrbitTable(s, omega, omega * s.size, omega * s.live_count, alpha, beta, deg, codeg)


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega): alpha / deg p_1 and
    beta / codeg p_1 at omega = 1, times gcd(deg p_1, omega), gcd(codeg p_1, omega)."""
    (alpha_1, beta_1), (deg_p1, codeg_p1) = s.fundamental_counts, s.fundamental_degrees
    return alpha_1 * gcd(deg_p1, omega), beta_1 * gcd(codeg_p1, omega)


def swallow_shift(s: Scroll, which: int, size: int) -> int:
    """The uniform shift k of the swallow (which = 0) or co-swallow (1) of
    the table of size residues: the label of each tape index of the
    co-slither (slither) walk maps to the label of that index minus size,
    both read off the snake (co-snake) labels mod sigma: translation by the
    table size commutes with both steps.  The images must be the labels'
    cyclic order (`Scroll.swallow_orders`) rotated by k."""
    order, labels = s.swallow_orders[which], s.snake_labels[which]
    indices = (s.slither_walk if which else s.coslither_walk)[0]
    modulus = len(labels)
    image = tuple([labels[(k - size) % modulus] for k in indices])
    shift = order.index(image[0])
    if image != order[shift:] + order[:shift]:
        raise AssertionError("swallow permutation is not a uniform shift")
    return shift


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


def swallow(t: OrbitTable) -> SwallowPermutation:
    """Permutation of snakes induced by stepping past each omega-head."""
    s = t.scroll
    # snakes are traversed once per co-slither cycle: order by co-successor
    return SwallowPermutation(s.swallow_orders[0], swallow_shift(s, 0, t.size))


def co_swallow(t: OrbitTable) -> SwallowPermutation:
    s = t.scroll
    # co-snakes are traversed once per slither cycle: order by successor
    return SwallowPermutation(s.swallow_orders[1], swallow_shift(s, 1, t.size))


@dataclass(slots=True)
class GroupInvariants:
    factors: tuple[int, int]  # invariant factors d1 | d2, possibly with d1 = 1

    @property
    def order(self) -> int:
        return self.factors[0] * self.factors[1]

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)


def _product_pair(a: int, b: int) -> tuple[int, int]:
    """(gcd, lcm) of a and b: the invariant factors of Z_a x Z_b, with 1s."""
    d = gcd(a, b)
    return d, a * b // d


def product_invariants(a: int, b: int) -> tuple[int, ...]:
    """Invariant factors of Z_a x Z_b, the nontrivial ones of its pair d | l."""
    d, l = _product_pair(a, b)
    return (d, l) if d > 1 else (l,) if l > 1 else ()


def matches_product(factors: tuple[int, int], a: int, b: int) -> bool:
    """Whether invariant factors (d1, d2), d1 | d2, are those of Z_a x Z_b,
    the gcd and lcm of a and b."""
    return factors == _product_pair(a, b)


def group_factors(s: Scroll, eta: int, alpha: int, beta: int) -> tuple[int, int]:
    """Invariant factors (d1, d2) of
    <s, c | sc=cs, s^beta=c^alpha, s^(eta/a)=c^(eta/b)=1>, a = bar_alpha and
    b = bar_beta the table's counts and eta its live count.

    The relation matrix has two columns, so its invariant factors are its
    determinantal divisors (H. J. S. Smith, 1861): d1 is the gcd of its
    entries, and d1*d2 the gcd of its three 2x2 minors, which must be eta.
    The presentation describes the actual permutation group generated by
    the two maps mod the table size (checked against a torsor oracle in the
    test suite).  Simple transitivity gives order eta, ord s = eta/bar_alpha
    and ord c = eta/bar_beta, so the group is Z_g x Z_(eta/g) with
    g = gcd(bar_alpha, bar_beta).
    """
    snakes = s.snakes
    ord_s, ord_c = eta // alpha, eta // beta
    # rows (beta, -alpha), (ord_s, 0), (0, ord_c)
    d1 = gcd(snakes.alpha, snakes.beta, ord_s, ord_c)
    order = gcd(snakes.alpha * ord_s, snakes.beta * ord_c, ord_s * ord_c)
    if order != eta:
        raise AssertionError(f"group order {order} != live count {eta}")
    return d1, order // d1


def group_invariants(t: OrbitTable) -> GroupInvariants:
    """The table's invariant factors (`group_factors`)."""
    return GroupInvariants(group_factors(t.scroll, t.eta, t.alpha, t.beta))


def table_words(s: Scroll, alpha: int, beta: int) -> tuple[str, str]:
    """The table slither, of length bar_beta = beta, and co-slither, of
    length bar_alpha = alpha: their codeg(p_omega) and deg(p_omega) powers
    are the scroll's words."""
    met = s.metrics
    return met.slither.word[:beta], met.coslither.word[:alpha]


def table_slither(t: OrbitTable) -> str:
    return table_words(t.scroll, t.alpha, t.beta)[0]


def table_coslither(t: OrbitTable) -> str:
    return table_words(t.scroll, t.alpha, t.beta)[1]


def color_preserving(
    s: Scroll, omega: int, size: int, alpha: int, beta: int, shifts: tuple[int, int]
) -> bool:
    """Evaluate the five equivalent conditions on the omega-fold table of
    size residues, counts alpha = bar_alpha and beta = bar_beta, whose
    swallow and co-swallow have the given shifts; assert they agree."""
    snakes = s.snakes
    deg_p1, codeg_p1 = s.fundamental_degrees
    counts = alpha == snakes.alpha and beta == snakes.beta
    swallows = shifts == (0, 0)
    bijection = snakes.alpha // alpha == 1 and snakes.beta // beta == 1
    scale = size % s.metrics.sigma == 0
    frequency = omega % (deg_p1 * codeg_p1) == 0
    if counts == swallows == bijection == scale == frequency:
        return counts
    conditions = dict(
        counts=counts, swallows=swallows, bijection=bijection, scale=scale, frequency=frequency
    )
    raise AssertionError(f"color-preserving conditions disagree: {conditions}")


def is_color_preserving(t: OrbitTable, sw: SwallowPermutation, cs: SwallowPermutation) -> bool:
    """The five conditions (`color_preserving`) on table t, whose swallow
    and co-swallow are sw and cs."""
    return color_preserving(t.scroll, t.omega, t.size, t.alpha, t.beta, (sw.shift, cs.shift))
