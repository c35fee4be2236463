"""Finite orbit tables: ouroboroi, swallow permutations, group invariants.

An omega-fold orbit table stacks omega copies of the fundamental orbit;
successor and co-successor descend to it by reducing the row (that is,
the tape index) modulo the table size.  Their orbits are the ouroboroi
and co-ouroboroi; live entries form a torsor of the finite abelian group
generated by the two reduced maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .scroll import Scroll, SnakePartition, cycle_labels, snakes_and_cosnakes


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
    def rows(self) -> tuple[str, ...]:
        return self.scroll.base.rows * self.omega

    @cached_property
    def live(self) -> tuple[int, ...]:
        """Live tape indices in 1..r*n."""
        return tuple(t for t, bit in enumerate(self.scroll.vector * self.omega, 1) if bit)

    @property
    def eta(self) -> int:
        return len(self.live)

    def _wrap(self, t: int) -> int:
        return (t - 1) % self.size + 1

    def successor(self, t: int) -> int:
        return self._wrap(self.scroll.successor(t))

    def co_successor(self, t: int) -> int:
        return self._wrap(self.scroll.co_successor(t))


def omega_table(s: Scroll, omega: int) -> OrbitTable:
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    return OrbitTable(s, omega)


@dataclass(frozen=True)
class OuroborosPartition:
    ouro_label: dict[int, int]
    co_ouro_label: dict[int, int]

    @property
    def bar_alpha(self) -> int:
        return len(set(self.ouro_label.values()))

    @property
    def bar_beta(self) -> int:
        return len(set(self.co_ouro_label.values()))


@lru_cache(maxsize=256)
def ouroboros_partition(t: OrbitTable) -> OuroborosPartition:
    return OuroborosPartition(
        cycle_labels(t.live, t.successor), cycle_labels(t.live, t.co_successor)
    )


def fundamental_degrees(s: Scroll) -> tuple[int, int]:
    """(deg p_1, codeg p_1): snake and co-snake multiplicities at omega=1."""
    part = snakes_and_cosnakes(s)
    table = ouroboros_partition(omega_table(s, 1))
    alpha, beta = part.alpha, part.beta
    if alpha % table.bar_alpha or beta % table.bar_beta:
        raise AssertionError("snake counts not divisible by ouroboros counts")
    deg_p1 = alpha // table.bar_alpha
    codeg_p1 = beta // table.bar_beta
    if gcd(deg_p1, codeg_p1) != 1:
        raise AssertionError(
            f"fundamental degrees not coprime: ({deg_p1}, {codeg_p1})"
        )
    return deg_p1, codeg_p1


def predicted_counts(s: Scroll, omega: int) -> tuple[int, int]:
    """Closed-form (bar_alpha_omega, bar_beta_omega)."""
    base = ouroboros_partition(omega_table(s, 1))
    deg_p1, codeg_p1 = fundamental_degrees(s)
    return (
        base.bar_alpha * gcd(deg_p1, omega),
        base.bar_beta * gcd(codeg_p1, omega),
    )


def table_degrees(s: Scroll, omega: int) -> tuple[int, int]:
    """(deg p_omega, codeg p_omega) for the omega-fold table."""
    part = snakes_and_cosnakes(s)
    table = ouroboros_partition(omega_table(s, omega))
    return part.alpha // table.bar_alpha, part.beta // table.bar_beta


@dataclass(frozen=True)
class SwallowPermutation:
    """A permutation of snake labels in their cyclic traversal order."""

    order: tuple[int, ...]  # labels in cyclic order
    image: dict[int, int]  # label -> label under the swallow map

    @property
    def shift(self) -> int:
        """Uniform shift k with image(order[i]) = order[i+k]; verified."""
        pos = {label: i for i, label in enumerate(self.order)}
        size = len(self.order)
        k = (pos[self.image[self.order[0]]] - 0) % size
        for i, label in enumerate(self.order):
            if pos[self.image[label]] != (i + k) % size:
                raise AssertionError("swallow permutation is not a uniform shift")
        return k

    @property
    def cycle_type(self) -> tuple[int, ...]:
        size = len(self.order)
        cycles = gcd(self.shift, size)
        return tuple(sorted([size // cycles] * cycles))

    @property
    def is_identity(self) -> bool:
        return self.shift == 0


def _cyclic_label_order(
    part: SnakePartition, labels_of, step, anchor: int
) -> tuple[int, ...]:
    """Labels in the cyclic order induced by repeatedly applying step."""
    count = len(set(labels_of.values()))
    order = []
    t = anchor
    for _ in range(count):
        order.append(part_label(part, labels_of, t))
        t = step(t)
    if len(set(order)) != count:
        raise AssertionError("step map does not traverse all labels once")
    return tuple(order)


def part_label(part: SnakePartition, labels: dict[int, int], t: int) -> int:
    return labels[t % part.sigma]


def swallow(t: OrbitTable) -> SwallowPermutation:
    """Permutation of snakes induced by stepping past each omega-head."""
    s = t.scroll
    part = snakes_and_cosnakes(s)
    anchor = min(t.live)
    # snakes are traversed once per co-slither cycle: order by co-successor
    order = _cyclic_label_order(part, part.snake_label, s.co_successor, anchor)
    image = {}
    for label in order:
        head = max(k for k in t.live if part_label(part, part.snake_label, k) == label)
        image[label] = part_label(part, part.snake_label, t.successor(head))
    return SwallowPermutation(order, image)


def co_swallow(t: OrbitTable) -> SwallowPermutation:
    s = t.scroll
    part = snakes_and_cosnakes(s)
    anchor = min(t.live)
    # co-snakes are traversed once per slither cycle: order by successor
    order = _cyclic_label_order(part, part.cosnake_label, s.successor, anchor)
    image = {}
    for label in order:
        head = max(
            k for k in t.live if part_label(part, part.cosnake_label, k) == label
        )
        image[label] = part_label(part, part.cosnake_label, t.co_successor(head))
    return SwallowPermutation(order, image)


def smith_invariants(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer relation matrix.

    Elementary row/column reduction; fine for the tiny matrices here.
    """
    mat = [row[:] for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    invariants = []
    top = 0
    while top < min(nrows, ncols):
        pivot = min(
            (
                (abs(mat[i][j]), i, j)
                for i in range(top, nrows)
                for j in range(top, ncols)
                if mat[i][j] != 0
            ),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        mat[top], mat[pi] = mat[pi], mat[top]
        for row in mat:
            row[top], row[pj] = row[pj], row[top]
        dirty = False
        for i in range(top + 1, nrows):
            q = mat[i][top] // mat[top][top]
            if q:
                for j in range(ncols):
                    mat[i][j] -= q * mat[top][j]
            if mat[i][top] != 0:
                dirty = True
        for j in range(top + 1, ncols):
            q = mat[top][j] // mat[top][top]
            if q:
                for i in range(nrows):
                    mat[i][j] -= q * mat[i][top]
            if mat[top][j] != 0:
                dirty = True
        if dirty:
            continue
        invariants.append(abs(mat[top][top]))
        top += 1
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(invariants)):
        for j in range(i + 1, len(invariants)):
            a, b = invariants[i], invariants[j]
            g = gcd(a, b)
            invariants[i], invariants[j] = g, a * b // g if g else 0
    return invariants


@dataclass(frozen=True)
class GroupInvariants:
    factors: tuple[int, ...]  # invariant factors d1 | d2, possibly with d1 = 1
    ouro_product: tuple[int, ...]  # invariant factors of Z_bar_alpha x Z_(eta/bar_alpha)
    co_ouro_product: tuple[int, ...]  # likewise on the co-ouroboros side

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

    The presentation describes the actual permutation group generated by
    the reduced maps (checked against brute force in the test suite).
    The two product decompositions are reported alongside: they agree
    with the presentation on many tables but not on all of them, so they
    are evidence fields rather than assertions here.
    """
    part = snakes_and_cosnakes(t.scroll)
    tab = ouroboros_partition(t)
    eta = t.eta
    rel = [
        [part.beta, -part.alpha],
        [eta // tab.bar_alpha, 0],
        [0, eta // tab.bar_beta],
    ]
    factors = tuple(smith_invariants(rel))
    inv = GroupInvariants(
        factors,
        product_invariants(tab.bar_alpha, eta // tab.bar_alpha),
        product_invariants(tab.bar_beta, eta // tab.bar_beta),
    )
    if inv.order != eta:
        raise AssertionError(f"group order {inv.order} != live count {eta}")
    return inv


def permutation_group_invariants(t: OrbitTable) -> tuple[int, ...]:
    """Invariant factors of the concrete group generated by the reduced maps.

    Brute force: find the full relation lattice of the two commuting
    permutations and reduce it.  Oracle for group_invariants.
    """
    live = t.live
    sperm = {k: t.successor(k) for k in live}
    cperm = {k: t.co_successor(k) for k in live}

    def perm_order(p: dict[int, int]) -> int:
        count = 1
        cur = dict(p)
        while any(cur[k] != k for k in live):
            cur = {k: p[cur[k]] for k in live}
            count += 1
        return count

    ord_s, ord_c = perm_order(sperm), perm_order(cperm)
    rels = [[ord_s, 0], [0, ord_c]]
    s_power = {k: k for k in live}
    for a in range(ord_s):
        composed = dict(s_power)
        for b in range(ord_c):
            if (a, b) != (0, 0) and all(composed[k] == k for k in live):
                rels.append([a, b])
            composed = {k: cperm[composed[k]] for k in live}
        s_power = {k: sperm[s_power[k]] for k in live}
    return tuple(d for d in smith_invariants(rels) if d > 1)


def table_slither(t: OrbitTable) -> str:
    """Length bar_beta step word; its codeg(p_omega) power is the scroll slither."""
    tab = ouroboros_partition(t)
    return t.scroll.metrics.slither.word[: tab.bar_beta]


def table_coslither(t: OrbitTable) -> str:
    tab = ouroboros_partition(t)
    return t.scroll.metrics.coslither.word[: tab.bar_alpha]


def is_color_preserving(s: Scroll, omega: int) -> bool:
    """Evaluate the five equivalent conditions; assert they agree."""
    part = snakes_and_cosnakes(s)
    table = omega_table(s, omega)
    tab = ouroboros_partition(table)
    deg_p, codeg_p = table_degrees(s, omega)
    deg_p1, codeg_p1 = fundamental_degrees(s)
    conditions = {
        "counts": tab.bar_alpha == part.alpha and tab.bar_beta == part.beta,
        "swallows": swallow(table).is_identity and co_swallow(table).is_identity,
        "bijection": deg_p == 1 and codeg_p == 1,
        "scale": (omega * s.n * s.m) % s.metrics.sigma == 0,
        "frequency": omega % (deg_p1 * codeg_p1) == 0,
    }
    values = set(conditions.values())
    if len(values) != 1:
        raise AssertionError(f"color-preserving conditions disagree: {conditions}")
    return values.pop()
