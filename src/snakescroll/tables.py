"""Finite orbit tables: ouroboroi, swallow permutations, group invariants.

An omega-fold orbit table stacks omega copies of the fundamental orbit;
successor and co-successor descend to it by the reduction that gives the
snakes, at another modulus: the tape index modulo the table size
omega*m*n instead of sigma.  `ouroboros_partition` is that
`scroll.Partition`: its snakes are the ouroboroi and its co-snakes the
co-ouroboroi.  The live residues form a torsor of the finite abelian
group generated by the two reduced maps.  That group has rank at
most two, so its invariant factors are two gcds of its presentation
(`group_invariants`); `permutation_group_invariants` reads them off the
torsor instead, as an oracle.  Covering degrees, predicted counts and
swallows are closed forms in the scroll's metrics; the cycle counts of the
reduced maps (`ouroboros_partition`) are what they are checked against.

A caller builds one table per omega with `omega_table` (`verify.check_tables`
per omega, the `orbit` command per request) and hands it, with its two
swallows where needed, to every helper here: no helper builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .scroll import Partition, Scroll, partition, snakes_and_cosnakes


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

    @cached_property
    def live(self) -> tuple[int, ...]:
        """Live tape indices in 1..r*n."""
        return tuple(t for t, bit in enumerate(self.scroll.vector * self.omega, 1) if bit)

    @property
    def eta(self) -> int:
        """Number of live entries: omega copies of the fundamental vector's."""
        return self.omega * self.scroll.vector.count(1)


def omega_table(s: Scroll, omega: int) -> OrbitTable:
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    return OrbitTable(s, omega)


# One table at a time, like `snakes_and_cosnakes`: the last one is cached.
@lru_cache(maxsize=1)
def ouroboros_partition(t: OrbitTable) -> Partition:
    """Ouroboroi (alpha) and co-ouroboroi (beta): the partition mod t.size."""
    return partition(t.scroll, t.size)


def fundamental_degrees(s: Scroll) -> tuple[int, int]:
    """(deg p_1, codeg p_1), the covering degrees onto the omega = 1 table:
    a snake is p-periodic (no shorter shift fixes it), so read mod m*n it
    winds p / gcd(p, m*n) times around the table; a co-snake likewise, q."""
    met, size = s.metrics, s.m * s.n
    return met.p // gcd(met.p, size), met.q // gcd(met.q, size)


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega): alpha / deg p_1 and
    beta / codeg p_1 at omega = 1, times gcd(deg p_1, omega), gcd(codeg p_1, omega)."""
    met = s.metrics
    deg_p1, codeg_p1 = fundamental_degrees(s)
    return (
        met.coslither.alpha // deg_p1 * gcd(deg_p1, omega),
        met.slither.beta // codeg_p1 * gcd(codeg_p1, omega),
    )


def table_degrees(t: OrbitTable) -> tuple[int, int]:
    """(deg p_omega, codeg p_omega) for the omega-fold table."""
    part = snakes_and_cosnakes(t.scroll)
    tab = ouroboros_partition(t)
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


def _swallow(t: OrbitTable, label_of, count: int, order_step) -> SwallowPermutation:
    """The count labels in the cyclic order of order_step from the first
    live entry, each mapped to the label of k - size for any k on it:
    translation by the table size commutes with both steps.  The image
    must be a uniform shift of that order; its shift is stored."""
    order, image = [], {}
    k = t.scroll.vector.index(1) + 1
    for _ in range(count):
        label = label_of(k)
        order.append(label)
        image[label] = label_of(k - t.size)
        k = order_step(k)
    if len(image) != count:
        raise AssertionError("step map does not traverse all labels once")
    shift = order.index(image[order[0]])
    if [image[label] for label in order] != order[shift:] + order[:shift]:
        raise AssertionError("swallow permutation is not a uniform shift")
    return SwallowPermutation(tuple(order), image, shift)


def swallow(t: OrbitTable) -> SwallowPermutation:
    """Permutation of snakes induced by stepping past each omega-head."""
    part = snakes_and_cosnakes(t.scroll)
    # snakes are traversed once per co-slither cycle: order by co-successor
    return _swallow(t, part.snake_of, part.alpha, t.scroll.co_successor)


def co_swallow(t: OrbitTable) -> SwallowPermutation:
    part = snakes_and_cosnakes(t.scroll)
    # co-snakes are traversed once per slither cycle: order by successor
    return _swallow(t, part.cosnake_of, part.beta, t.scroll.successor)


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
    the reduced maps (checked against `permutation_group_invariants` in
    the test suite).
    Simple transitivity gives order eta, ord s = eta/bar_alpha and
    ord c = eta/bar_beta, so the group is Z_g x Z_(eta/g) with
    g = gcd(bar_alpha, bar_beta).  The two product decompositions are
    reported alongside as evidence fields rather than assertions:
    Z_bar_alpha x Z_(eta/bar_alpha) agrees exactly when
    gcd(bar_alpha, eta/bar_alpha) = g, Z_bar_beta x Z_(eta/bar_beta)
    exactly when gcd(bar_beta, eta/bar_beta) = g.
    """
    part = snakes_and_cosnakes(t.scroll)
    tab = ouroboros_partition(t)
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


def permutation_group_invariants(t: OrbitTable) -> tuple[int, ...]:
    """Nontrivial invariant factors of the group the reduced maps generate.

    Oracle for group_invariants: it reads only the table partition's live
    residues and its two reduced maps s (successor) and c (co-successor).
    Commuting maps whose group is transitive on the live entries act simply
    transitively, so the group is Z^2 modulo the stabiliser lattice of t0.  With l the
    length of the c-orbit of t0 and s^k(t0) = c^j(t0) for the least
    k > 0, that lattice has basis (0, l), (k, -j) and index k*l = eta.
    """
    tab = ouroboros_partition(t)
    live, (s, c) = tab.live, tab.maps
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


def table_slither(t: OrbitTable) -> str:
    """Length bar_beta step word; its codeg(p_omega) power is the scroll slither."""
    tab = ouroboros_partition(t)
    return t.scroll.metrics.slither.word[: tab.beta]


def table_coslither(t: OrbitTable) -> str:
    tab = ouroboros_partition(t)
    return t.scroll.metrics.coslither.word[: tab.alpha]


def is_color_preserving(t: OrbitTable, sw: SwallowPermutation, cs: SwallowPermutation) -> bool:
    """Evaluate the five equivalent conditions on table t, whose swallow and
    co-swallow are sw and cs; assert they agree."""
    s = t.scroll
    part = snakes_and_cosnakes(s)
    tab = ouroboros_partition(t)
    deg_p1, codeg_p1 = fundamental_degrees(s)
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
