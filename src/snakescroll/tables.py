"""Finite orbit tables: ouroboroi, swallow permutations, group invariants.

An omega-fold orbit table stacks omega copies of the fundamental orbit;
successor and co-successor descend to it by the reduction that gives the
snakes, at another modulus: the tape index modulo the table size
omega*m*n instead of sigma.  `OrbitTable.ouroboroi` is that
`scroll.Partition`, built once per table: its snakes are the ouroboroi and
its co-snakes the co-ouroboroi.  A table keeps only the two counts.  It
covers the tape period T, so they are lifted, not walked: a cycle mod T of
winding w (summed advance w*T) splits into gcd(w, omega*m*n/T) cycles of
the table, one per orbit of the translation by w*T on the cycle's fibre,
and no table walks or labels its maps (`scroll.walk_cycles` runs mod T and
mod sigma only).  The live residues form a torsor of the finite abelian
group generated by the two maps mod the table size; the torsor law of
`verify` checks that in bar_beta successor steps, each placed on its
co-successor orbit through the same covering, with no walk of size eta.
The group has rank at most two, so its invariant factors are two gcds of
its presentation (`group_invariants`); the test suite's group oracle reads
them off the steps reduced mod the table size instead.  Covering degrees
(`Scroll.fundamental_degrees`), predicted counts and swallows are closed
forms in the scroll's metrics; the lifted cycle counts
(`OrbitTable.ouroboroi`) are what they are checked against.  A swallow's
walk order does not depend on omega: each scroll keeps it
(`Scroll.snake_walk`, `Scroll.cosnake_walk`), and a table adds only the
image of each label.

A caller builds one table per omega with `omega_table` (`verify.check_tables`
per omega, the `orbit` command per request) and hands it, with its two
swallows where needed, to every helper here: no helper builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .scroll import Partition, Scroll, partition


@dataclass(frozen=True)
class OrbitTable:
    scroll: Scroll
    omega: int

    @property
    def n(self) -> int:
        return self.scroll.n

    @property
    def r(self) -> int:
        return self.omega * self.scroll.m

    @property
    def size(self) -> int:
        return self.r * self.n

    @property
    def eta(self) -> int:
        """Number of live entries: omega copies of the fundamental vector's."""
        return self.omega * self.scroll.vector.count(1)

    @cached_property
    def ouroboroi(self) -> Partition:
        """Ouroboroi (alpha) and co-ouroboroi (beta): the partition mod the table size."""
        return partition(self.scroll, self.size)


def omega_table(s: Scroll, omega: int) -> OrbitTable:
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    return OrbitTable(s, omega)


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega): alpha / deg p_1 and
    beta / codeg p_1 at omega = 1, times gcd(deg p_1, omega), gcd(codeg p_1, omega)."""
    met = s.metrics
    deg_p1, codeg_p1 = s.fundamental_degrees
    return (
        met.coslither.alpha // deg_p1 * gcd(deg_p1, omega),
        met.slither.beta // codeg_p1 * gcd(codeg_p1, omega),
    )


def table_degrees(t: OrbitTable) -> tuple[int, int]:
    """(deg p_omega, codeg p_omega) for the omega-fold table."""
    part = t.scroll.snakes
    tab = t.ouroboroi
    return part.alpha // tab.alpha, part.beta // tab.beta


@dataclass(frozen=True)
class SwallowPermutation:
    """A permutation of snake labels in their cyclic traversal order."""

    order: tuple[int, ...]  # labels in cyclic order
    image: dict[int, int]  # label -> label under the swallow map
    shift: int  # uniform shift k with image(order[i]) = order[i+k]

    @property
    def cycle_type(self) -> tuple[int, ...]:
        size = len(self.order)
        cycles = gcd(self.shift, size)
        return tuple(sorted([size // cycles] * cycles))

    @property
    def is_identity(self) -> bool:
        return self.shift == 0


def _swallow(t: OrbitTable, label_of, walk: tuple[list[int], list]) -> SwallowPermutation:
    """The labels of walk, tape indices k in their cyclic order and the
    label of each, each mapped to the label of k - size: translation by the
    table size commutes with both steps.  The image must be a uniform shift
    of that order; its shift is stored."""
    (indices, order), size = walk, t.size
    image = {label: label_of(k - size) for k, label in zip(indices, order)}
    if len(image) != len(order):
        raise AssertionError("step map does not traverse all labels once")
    shift = order.index(image[order[0]])
    if [image[label] for label in order] != order[shift:] + order[:shift]:
        raise AssertionError("swallow permutation is not a uniform shift")
    return SwallowPermutation(tuple(order), image, shift)


def swallow(t: OrbitTable) -> SwallowPermutation:
    """Permutation of snakes induced by stepping past each omega-head."""
    s = t.scroll
    # snakes are traversed once per co-slither cycle: order by co-successor
    return _swallow(t, s.snakes.snake_of, s.snake_walk)


def co_swallow(t: OrbitTable) -> SwallowPermutation:
    s = t.scroll
    # co-snakes are traversed once per slither cycle: order by successor
    return _swallow(t, s.snakes.cosnake_of, s.cosnake_walk)


@dataclass(frozen=True)
class GroupInvariants:
    factors: tuple[int, ...]  # invariant factors d1 | d2, possibly with d1 = 1
    # invariant factors of Z_bar_alpha x Z_(eta/bar_alpha); the group's own
    # are those of Z_g x Z_(eta/g), g = gcd(bar_alpha, bar_beta), so they
    # agree exactly when gcd(bar_alpha, eta/bar_alpha) = g
    ouro_product: tuple[int, ...]
    # likewise Z_bar_beta x Z_(eta/bar_beta): agrees exactly when
    # gcd(bar_beta, eta/bar_beta) = g
    co_ouro_product: tuple[int, ...]

    @property
    def order(self) -> int:
        total = 1
        for d in self.factors:
            total *= d
        return total

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)

    @property
    def matches_ouro_product(self) -> bool:
        return self.nontrivial == self.ouro_product

    @property
    def matches_co_ouro_product(self) -> bool:
        return self.nontrivial == self.co_ouro_product


def product_invariants(a: int, b: int) -> tuple[int, ...]:
    """Invariant factors of Z_a x Z_b."""
    return tuple(d for d in (gcd(a, b), (a * b) // gcd(a, b)) if d > 1)


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
    part = t.scroll.snakes
    tab = t.ouroboroi
    eta = t.eta
    ord_s, ord_c = eta // tab.alpha, eta // tab.beta
    # rows (beta, -alpha), (ord_s, 0), (0, ord_c)
    d1 = gcd(part.alpha, part.beta, ord_s, ord_c)
    order = gcd(part.alpha * ord_s, part.beta * ord_c, ord_s * ord_c)
    if order != eta:
        raise AssertionError(f"group order {order} != live count {eta}")
    return GroupInvariants(
        (d1, order // d1),
        product_invariants(tab.alpha, ord_s),
        product_invariants(tab.beta, ord_c),
    )


def table_slither(t: OrbitTable) -> str:
    """Length bar_beta step word; its codeg(p_omega) power is the scroll slither."""
    return t.scroll.metrics.slither.word[: t.ouroboroi.beta]


def table_coslither(t: OrbitTable) -> str:
    return t.scroll.metrics.coslither.word[: t.ouroboroi.alpha]


def is_color_preserving(t: OrbitTable, sw: SwallowPermutation, cs: SwallowPermutation) -> bool:
    """Evaluate the five equivalent conditions on table t, whose swallow and
    co-swallow are sw and cs; assert they agree."""
    s = t.scroll
    part = s.snakes
    tab = t.ouroboroi
    deg_p1, codeg_p1 = s.fundamental_degrees
    conditions = {
        "counts": tab.alpha == part.alpha and tab.beta == part.beta,
        "swallows": sw.is_identity and cs.is_identity,
        "bijection": part.alpha // tab.alpha == 1 and part.beta // tab.beta == 1,
        "scale": t.size % part.modulus == 0,
        "frequency": t.omega % (deg_p1 * codeg_p1) == 0,
    }
    values = set(conditions.values())
    if len(values) != 1:
        raise AssertionError(f"color-preserving conditions disagree: {conditions}")
    return values.pop()
