"""Brute-force verification of the closed-form theory on small cycles.

Every check compares a theorem-level prediction against direct
simulation of the sweep dynamics.  Violations are collected, never
silently dropped; an empty violation list is the pass condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .classify import canonical_tape, enumerate_ticker_tapes
from .cycles import all_orbits
from .cyclic import cyclically_equal
from .scroll import Scroll, snakes_and_cosnakes
from .sums import col_scale, sum_vector
from .tables import (
    co_swallow,
    fundamental_degrees,
    group_invariants,
    omega_table,
    ouroboros_partition,
    predicted_counts,
    swallow,
    table_coslither,
    table_degrees,
    table_slither,
    is_color_preserving,
)


@dataclass
class VerificationReport:
    passed: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    # recorded evidence, not violations: orbits where the same-side degree
    # divisibility deg(p_1) | deg fails (the crossed divisibility
    # deg(p_1) | codeg, codeg(p_1) | deg is the one that always holds)
    same_side_degree_failures: list[str] = field(default_factory=list)
    # tables whose group is not the direct product Z_bar_alpha x Z_(eta/bar_alpha)
    # (resp. the co-ouroboros product); the presentation-based invariants are
    # the ground truth, verified against the raw permutation group
    product_form_failures: list[str] = field(default_factory=list)

    def ok(self, name: str) -> None:
        self.passed[name] = self.passed.get(name, 0) + 1

    def check(self, name: str, condition: bool, context: str) -> None:
        if condition:
            self.ok(name)
        else:
            self.violations.append(f"{name}: {context}")

    @property
    def is_clean(self) -> bool:
        return not self.violations


def _universal_step(s: Scroll, coord: tuple[int, int], kind: str) -> tuple[int, int]:
    """Apply one (co-)successor or inverse step on unbounded coordinates."""
    i, j = coord
    t = i * s.n + j
    if kind == "s":
        _, letter = s.successor_step(t)
        return (i, j + 2) if letter == "E" else (i + 1, j + 1)
    if kind == "c":
        _, letter = s.co_successor_step(t)
        return (i + 2, j - 1) if letter == "S" else (i + 2, j - 2)
    if kind == "s-":
        _, letter = s.predecessor_step(t)
        return (i, j - 2) if letter == "E" else (i - 1, j - 1)
    _, letter = s.co_predecessor_step(t)
    return (i - 2, j + 1) if letter == "S" else (i - 2, j + 2)


def check_scroll(s: Scroll, rep: VerificationReport, extended: bool = True) -> None:
    """The per-orbit theorem suite."""
    n, m = s.n, s.m
    ctx = f"n={n} seed={s.base.rows[0]}"
    met = s.metrics
    part = snakes_and_cosnakes(s)
    live = [t for t in range(1, m * n + 1) if s.tape(t) == 1]

    # local structure at every live entry of the fundamental vector
    for t in live:
        i, j = divmod(t - 1, n)
        j += 1
        rep.check(
            "six-neighbor zeros",
            all(s.tape(t + d) == 0 for d in (-n, 1 - n, -1, 1, n - 1, n)),
            f"{ctx} at ({i},{j})",
        )
        try:
            st, s_letter = s.successor_step(t)
            ct, c_letter = s.co_successor_step(t)
            rep.ok("unique successor candidates")
        except AssertionError as exc:
            rep.violations.append(f"unique successor candidates: {ctx}: {exc}")
            continue
        rep.check(
            "commutation",
            s.successor(ct) == s.co_successor(st),
            f"{ctx} at tape {t}",
        )
        rep.check(
            "parallelogram",
            s.successor_step(ct)[1] == s_letter
            and s.co_successor_step(st)[1] == c_letter,
            f"{ctx} at tape {t}",
        )
        rep.check(
            "predecessor round trip",
            s.predecessor(st) == t and s.co_predecessor(ct) == t,
            f"{ctx} at tape {t}",
        )

    # letter-count constraints and scale identities
    ws, wc = met.slither, met.coslither
    rep.check(
        "beta_D = 2 alpha - 1",
        ws.beta_d == 2 * (wc.alpha_s + wc.alpha_l) - 1,
        ctx,
    )
    rep.check(
        "2bE + 3aS + 4aL = n+1",
        2 * ws.beta_e + 3 * wc.alpha_s + 4 * wc.alpha_l == n + 1,
        ctx,
    )
    rep.check("deg, codeg coprime", gcd(met.deg, met.codeg) == 1, ctx)
    rep.check("T_tape = gcd(p, q)", met.T_tape == gcd(met.p, met.q), ctx)
    rep.check("orbit length formula", met.T_scroll == m, ctx)
    rep.check("alpha from letters", part.alpha == wc.alpha, ctx)
    rep.check("beta from letters", part.beta == ws.beta, ctx)

    # sum-vector laws
    sv = sum_vector(omega_table(s, 1))
    cs = col_scale(s)
    rep.check("lambda odd", sv.lam % 2 == 1, ctx)
    rep.check("lambda | gcd(n, ColScale)", gcd(n, cs) % sv.lam == 0, ctx)
    rep.check("lambda > 1 implies n >= 4 lambda", sv.lam == 1 or n >= 4 * sv.lam, ctx)

    # torsor: (a, b) in [0,beta) x [0,alpha) moves t0 bijectively over the window
    sigma = part.sigma
    perm_s = {t: s.successor(t) % sigma for t in part.window}
    perm_c = {t: s.co_successor(t) % sigma for t in part.window}
    t0 = part.window[0]
    images = []
    cur = t0
    for _ in range(part.beta):
        val = cur
        for _ in range(part.alpha):
            images.append(val)
            val = perm_c[val]
        cur = perm_s[cur]
    rep.check(
        "torsor simple transitivity",
        len(set(images)) == len(part.window) == part.alpha * part.beta
        and set(images) == set(part.window),
        ctx,
    )

    if not extended:
        return

    # tape period: minimality and the divisibility characterization
    span = 3 * met.T_tape + m * n
    vec = [s.tape(t) for t in range(span)]
    for ell in range(1, 3 * met.T_tape + 1):
        shifted_equal = all(vec[t] == vec[t + ell] for t in range(m * n))
        rep.check(
            "tape shift iff T_tape divides",
            shifted_equal == (ell % met.T_tape == 0),
            f"{ctx} shift {ell}",
        )

    # step-word simulation agreement (slither and co-slither)
    t = live[0]
    word = []
    for _ in range(part.beta):
        t, letter = s.successor_step(t)
        word.append(letter)
    rep.check(
        "slither matches simulation",
        cyclically_equal("".join(word), ws.word),
        f"{ctx} simulated {''.join(word)}",
    )
    t = live[0]
    coword = []
    for _ in range(part.alpha):
        t, letter = s.co_successor_step(t)
        coword.append(letter)
    rep.check(
        "co-slither matches simulation",
        cyclically_equal("".join(coword), wc.word),
        f"{ctx} simulated {''.join(coword)}",
    )

    # linearity of iterated successor advance
    block = len(ws.word) // met.deg
    for r in range(1, min(3, met.deg) + 1):
        for t in part.window:
            u = t
            for _ in range(r * block):
                u = s.successor(u)
            rep.check(
                "successor advance linear",
                u - t == r * met.p,
                f"{ctx} r={r} from {t}",
            )

    # co-snake distinctness within one row span
    for t in part.window:
        for d in range(1, n):
            if s.tape(t + d) == 1:
                rep.check(
                    "near-row co-snake distinctness",
                    part.cosnake_of(t + d) != part.cosnake_of(t),
                    f"{ctx} tape {t}, {t + d}",
                )

    # free action on the universal scroll
    i0, j0 = divmod(live[0] - 1, n)
    start = (i0, j0 + 1)
    for a in range(-part.beta, part.beta + 1):
        for b in range(-part.alpha, part.alpha + 1):
            if (a, b) == (0, 0):
                continue
            coord = start
            for _ in range(abs(a)):
                coord = _universal_step(s, coord, "s" if a > 0 else "s-")
            for _ in range(abs(b)):
                coord = _universal_step(s, coord, "c" if b > 0 else "c-")
            rep.check(
                "free affine action",
                coord != start,
                f"{ctx} exponents ({a},{b})",
            )

    # fibers: residues mod sigma, singletons in the window
    for t in part.window:
        mates = [
            u
            for u in part.window
            if part.snake_label[u] == part.snake_label[t]
            and part.cosnake_label[u] == part.cosnake_label[t]
        ]
        rep.check("fibers are residues mod sigma", mates == [t], f"{ctx} tape {t}")


def check_tables(s: Scroll, omega_max: int, rep: VerificationReport) -> None:
    """Ouroboros counting, swallows, group invariants for omega = 1..omega_max."""
    n = s.n
    ctx = f"n={n} seed={s.base.rows[0]}"
    part = snakes_and_cosnakes(s)
    met = s.metrics

    deg_p1, codeg_p1 = fundamental_degrees(s)
    rep.check(
        "crossed degree divisibility",
        met.codeg % deg_p1 == 0 and met.deg % codeg_p1 == 0,
        ctx,
    )
    if met.deg % deg_p1 != 0 or met.codeg % codeg_p1 != 0:
        rep.same_side_degree_failures.append(
            f"{ctx}: deg(p1)={deg_p1} deg={met.deg} codeg(p1)={codeg_p1} codeg={met.codeg}"
        )

    for omega in range(1, omega_max + 1):
        octx = f"{ctx} omega={omega}"
        table = omega_table(s, omega)
        tab = ouroboros_partition(table)
        rep.check(
            "ouroboros counts match formula",
            (tab.bar_alpha, tab.bar_beta) == predicted_counts(s, omega),
            octx,
        )
        deg_p, codeg_p = table_degrees(s, omega)
        try:
            sw = swallow(table)
            cs = co_swallow(table)
            rep.check(
                "swallow cycle structure",
                sw.cycle_type == tuple([deg_p] * tab.bar_alpha)
                and cs.cycle_type == tuple([codeg_p] * tab.bar_beta),
                octx,
            )
        except AssertionError as exc:
            rep.violations.append(f"swallow uniform shift: {octx}: {exc}")
            continue
        try:
            inv = group_invariants(table)
            rep.ok("group order equals live count")
            if not (inv.matches_ouro_product and inv.matches_co_ouro_product):
                rep.product_form_failures.append(
                    f"{octx}: factors {inv.nontrivial}, products "
                    f"{inv.ouro_product} / {inv.co_ouro_product}"
                )
        except AssertionError as exc:
            rep.violations.append(f"group order equals live count: {octx}: {exc}")
        try:
            is_color_preserving(s, omega)
            rep.ok("color-preserving conditions agree")
        except AssertionError as exc:
            rep.violations.append(f"color-preserving conditions: {octx}: {exc}")

        rep.check(
            "table slither power identity",
            cyclically_equal(table_slither(table) * codeg_p, met.slither.word)
            and cyclically_equal(table_coslither(table) * deg_p, met.coslither.word),
            octx,
        )

        # torsor of the finite table group
        eta = table.eta
        t0 = table.live[0]
        images = []
        cur = t0
        for _ in range(tab.bar_beta):
            val = cur
            for _ in range(eta // tab.bar_beta):
                images.append(val)
                val = table.co_successor(val)
            cur = table.successor(cur)
        rep.check(
            "table torsor simple transitivity",
            len(set(images)) == eta and set(images) == set(table.live),
            octx,
        )


def classification_completeness(n: int, rep: VerificationReport) -> None:
    """Simulated canonical tapes equal the classified canonical tapes."""
    simulated = {canonical_tape(Scroll(o)) for o in all_orbits(n)}
    classified = {rec.tape for rec in enumerate_ticker_tapes(n)}
    rep.check(
        "classification completeness",
        simulated == classified,
        f"n={n}: {len(simulated)} simulated vs {len(classified)} classified",
    )


def run_verification(
    n_min: int = 2,
    n_max: int = 14,
    omega_max: int = 0,
    extended: bool = True,
    completeness: bool = False,
) -> VerificationReport:
    rep = VerificationReport()
    for n in range(n_min, n_max + 1):
        for o in all_orbits(n):
            s = Scroll(o)
            check_scroll(s, rep, extended=extended)
            if omega_max:
                check_tables(s, omega_max, rep)
        if completeness:
            classification_completeness(n, rep)
    return rep
