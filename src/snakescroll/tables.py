"""Finite orbit tables: ouroboroi, swallow shifts, group invariants.

An omega-fold orbit table stacks omega copies of the fundamental orbit;
successor and co-successor descend to it by the reduction that gives the
snakes, at another modulus: the tape index modulo the table size
omega*m*n instead of sigma.  Their cycles there are the ouroboroi and
co-ouroboroi.  A table covers the tape's least period P, so their counts
are lifted, not walked: a cycle mod P of winding w (summed advance w*P)
splits into gcd(w, omega*m*n/P) cycles of the table, one per orbit of the
translation by w*P on the cycle's fibre (`scroll.lifted_counts`).  No
table walks or labels its cycles.

A table is its scalars: its size omega*m*n, its live count eta, its
counts bar_alpha and bar_beta and its degrees deg p_omega =
alpha/bar_alpha and codeg p_omega = beta/bar_beta, read off constants
each scroll keeps for every omega: its size m*n (`Scroll.size`), its live
count (`Scroll.live_count`), its windings mod P (`Scroll.windings`) and
its snake counts (`Scroll.snakes`).  Each per-table value has one scalar
implementation here, a function of the scroll and those scalars: the
swallow shifts (`swallow_shift`), the invariant factors
(`group_factors`), the colour-preserving conditions
(`color_preserving`) and the table words (`table_words`).
Every one of them but the invariant factors, which read eta, reads omega
only through omega mod P_omega (`omega_period`), and so do the lifted and
predicted counts: the lcm of w / gcd(w, m*n/P) over the windings w of
both maps, deg p_1 * codeg p_1, and sigma / gcd(sigma, m*n), read off the
same scroll values those read.  `verify.check_tables` computes them once
per residue of omega mod P_omega and orbit, and the invariant factors at
every omega.

The live residues form a torsor of the finite abelian group generated by
the two maps mod the table size; the torsor law of `verify` checks that in
bar_beta successor steps, each placed on its co-successor orbit through
the same covering, with no walk of size eta.  The group has rank at most
two, so its invariant factors are two gcds of its presentation
(`group_factors`), whose product, the group's order, the group order law
of `verify` compares with eta; the test suite's group oracle reads them
off the steps reduced mod the table size instead.  Covering degrees
(`Scroll.fundamental_degrees`), predicted counts (`predicted_counts`, from
the word lengths and those degrees) and swallows are closed forms in the
scroll's metrics; the lifted cycle counts are what they are checked
against.  A swallow's walk order does not depend on omega: it is the
ids at the offsets of the scroll's one co-slither (slither) walk
(`Scroll.coslither_walk`, `Scroll.slither_walk`), kept once per scroll
(`Scroll.swallow_orders`).  A snake is named by an id, read through the
covering Z/sigma -> Z/P, never off an array of sigma entries: the offset
r + x*P, any integer x, r < P with lift q on cycle i of the map mod P,
lies on lift (x - q) mod g_i, g_i = gcd(w_i, sigma/P), of that cycle, and
has id first_i plus that lift, each cycle keeping its first id and g_i
(`Scroll.cycle_lifts`).  `Scroll.ids` is the one reader of that rule: a
swallow reads it at each walk offset less the table size.  Only the
renderers build the id arrays mod sigma (`Scroll.snake_labels`), from the
same method.

No table record is kept: a table is its scroll and omega.  The `orbit`
command's report (`report.orbit_report`) and renderers (`render`) take
the two and read the table's scalars and per-table values as `verify`
does.
"""

from __future__ import annotations

from math import gcd, lcm

from .scroll import Scroll


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega): alpha / deg p_1 and
    beta / codeg p_1 at omega = 1, alpha and beta read off the words, times
    gcd(deg p_1, omega) and gcd(codeg p_1, omega)."""
    met, (deg_p1, codeg_p1) = s.metrics, s.fundamental_degrees
    alpha, beta = len(met.coslither), len(met.slither)
    return alpha // deg_p1 * gcd(deg_p1, omega), beta // codeg_p1 * gcd(codeg_p1, omega)


def omega_period(s: Scroll) -> int:
    """P_omega, a period in omega of every per-table value that does not
    read eta, read off the values those read: the lcm of w / gcd(w, m*n/P)
    over the windings w of both maps (the lifted counts gcd(w, omega*m*n/P)
    repeat with it), deg p_1 * codeg p_1 (the predicted counts and the
    frequency condition) and sigma / gcd(sigma, m*n) (the table size mod
    sigma, which the swallow shifts and the scale condition read)."""
    size, sigma, (deg_p1, codeg_p1) = s.size, s.metrics.sigma, s.fundamental_degrees
    fold = size // len(s.unit)
    windings = [w // gcd(w, fold) for ws in s.windings for w in ws]
    return lcm(deg_p1 * codeg_p1, sigma // gcd(sigma, size), *windings)


def swallow_shift(s: Scroll, which: int, size: int) -> int:
    """The uniform shift k of the swallow (which = 0) or co-swallow (1) of
    the table of size residues, a multiple of P = len(s.unit): the snake of
    each offset v of the co-slither (slither) walk maps to the snake of
    v - size, translation by the table size commuting with both steps, both
    read as ids (`Scroll.ids`).  The images must be the ids' cyclic order
    (`Scroll.swallow_orders`) rotated by k."""
    order = s.swallow_orders[which]
    offsets = (s.coslither_walk, s.slither_walk)[which][0]
    image = tuple(s.ids(which, [v - size for v in offsets]))
    shift = order.index(image[0])
    if image != order[shift:] + order[:shift]:
        raise AssertionError("swallow permutation is not a uniform shift")
    return shift


def nontrivial(pair: tuple[int, int]) -> tuple[int, ...]:
    """The invariant factors above 1 of a pair d | l."""
    d, l = pair
    return (d, l) if d > 1 else (l,) if l > 1 else ()


def product_pair(a: int, b: int) -> tuple[int, int]:
    """(gcd, lcm) of a and b: the invariant factors of Z_a x Z_b, with 1s."""
    d = gcd(a, b)
    return d, a * b // d


def group_factors(s: Scroll, eta: int, alpha: int, beta: int) -> tuple[int, int]:
    """Invariant factors (d1, d2) of
    <s, c | sc=cs, s^beta=c^alpha, s^(eta/a)=c^(eta/b)=1>, a = bar_alpha and
    b = bar_beta the table's counts and eta its live count.

    The relation matrix has two columns, so its invariant factors are its
    determinantal divisors (H. J. S. Smith, 1861): d1 is the gcd of its
    entries, and d1*d2, the group's order, the gcd of its three 2x2 minors.
    The presentation describes the actual permutation group generated by
    the two maps mod the table size (checked against a torsor oracle in the
    test suite).  Simple transitivity gives order eta, ord s = eta/bar_alpha
    and ord c = eta/bar_beta, so the group is Z_g x Z_(eta/g) with
    g = gcd(bar_alpha, bar_beta); the group order law of `verify` compares
    d1*d2 with eta.
    """
    snakes = s.snakes
    ord_s, ord_c = eta // alpha, eta // beta
    # rows (beta, -alpha), (ord_s, 0), (0, ord_c)
    d1 = gcd(snakes.alpha, snakes.beta, ord_s, ord_c)
    return d1, gcd(snakes.alpha * ord_s, snakes.beta * ord_c, ord_s * ord_c) // d1


def table_words(s: Scroll, alpha: int, beta: int) -> tuple[str, str]:
    """The table slither, of length bar_beta = beta, and co-slither, of
    length bar_alpha = alpha: their codeg(p_omega) and deg(p_omega) powers
    are the scroll's words."""
    met = s.metrics
    return met.slither[:beta], met.coslither[:alpha]


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
