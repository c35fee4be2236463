"""Brute-force verification of the closed-form theory on small cycles.

Every check compares a theorem-level prediction against direct
simulation of the sweep dynamics.  Violations are collected, never
silently dropped; an empty violation list is the pass condition.

Every law result takes one path into the report: a law yields one
(law, checks, failure details) entry, and `VerificationReport.tally`,
the only writer of `passed` and `violations`, counts its passes and makes
each violation line: the law, the orbit's name and the detail; a detail
string is built only for a check that fails.  An orbit is named one way,
"n=... seed=..." (`_orbit_name`), and only by the tally and the evidence
records.  `check_scroll` yields one entry per law and orbit, and a law
that passes builds no detail, no tape index list and no sorted or counted
failure set.
`check_tables` yields one entry per law for each run of omegas where
all its laws pass, and one per law at each omega with a failure: a table
is its scroll and omega, and each law reads the table's scalars off
`tables`' scalar cores.  Evidence (not violations) is kept as records,
formatted only when read.

Laws on snakes, co-snakes and ouroboroi mod some M, a multiple of the
tape's least period P (`Scroll.unit`), read both step maps' cycles mod P
(`Scroll.period_cycles`) through the covering Z/M -> Z/P, as the `scroll`
module states it, so each orbit walks its maps once, mod P, on the
offsets t - 1 its steps read; the swallows and the near-row law read the
snake ids mod sigma through the same covering (`Scroll.ids`).  A failure
is named by its tape index, offset plus one, mod P plus whole laps.  The
closed form T_tape is compared with P, and never used as a modulus.  The
tests hold each such law to an oracle that steps the maps mod M.

Classification completeness compares, for each n, the least tape periods
of the simulated orbits (`Scroll.unit`, in its least rotation), collected
while each orbit is checked, with the canonical periods of the classified
tape classes: a tape is its least period repeated, so the two sets agree
exactly when the canonical tapes do.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, cycle
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from .classify import enumerate_ticker_tapes
from .cycles import all_orbits
from .cyclic import canonical_binary, cyclically_equal
from .scroll import _CHARS, Scroll, lifted_counts, rotations
from .slither import _STEP_SHAPE
from .sums import col_scale, sum_vector
from .tables import (
    color_preserving,
    group_factors,
    nontrivial,
    omega_period,
    predicted_counts,
    product_pair,
    swallow_shift,
    table_words,
)


# one law's checks on one orbit: its name, its number of checks and the
# details of those that failed, each what its violation says after the
# orbit's name
Law = tuple[str, int, Sequence[str]]


def _orbit_name(orbit: Scroll | SameSideDegreeFailure | ProductFormFailure) -> str:
    """How a violation or an evidence record names its orbit."""
    return f"n={orbit.n} seed={orbit.seed}"


class SameSideDegreeFailure(NamedTuple):
    """An orbit where deg(p_1) does not divide deg, or codeg(p_1) codeg."""

    n: int
    seed: str
    deg_p1: int
    deg: int
    codeg_p1: int
    codeg: int

    def __str__(self) -> str:
        return (
            f"{_orbit_name(self)}: deg(p1)={self.deg_p1} deg={self.deg} "
            f"codeg(p1)={self.codeg_p1} codeg={self.codeg}"
        )


class ProductFormFailure(NamedTuple):
    """A table whose invariant factors are not both product pairs."""

    n: int
    seed: str
    omega: int
    factors: tuple[int, int]
    by_snakes: tuple[int, int]
    by_cosnakes: tuple[int, int]

    def __str__(self) -> str:
        return (
            f"{_orbit_name(self)} omega={self.omega}: factors "
            f"{nontrivial(self.factors)}, products {nontrivial(self.by_snakes)} / "
            f"{nontrivial(self.by_cosnakes)}"
        )


class _ReportFields(NamedTuple):
    # checks passed per law, tallied once per law and orbit; a law gets its
    # key with its first pass, so a law that never passed has none
    passed: dict[str, int]
    # "law: n=... seed=...detail" per failed check, made by the tally; a
    # detail string is built only for a failure, never for a pass
    violations: list[str]
    # recorded evidence, not violations: orbits where the same-side degree
    # divisibility deg(p_1) | deg fails (the crossed divisibility
    # deg(p_1) | codeg, codeg(p_1) | deg is the one that always holds)
    same_side_degree_failures: list[SameSideDegreeFailure]
    # tables whose group is not the direct product Z_bar_alpha x Z_(eta/bar_alpha)
    # (resp. the co-ouroboros product); the presentation's closed-form
    # invariants are the ground truth, and the test suite checks them
    # against a torsor oracle
    product_form_failures: list[ProductFormFailure]


class VerificationReport(_ReportFields):
    """The four results of a verification run, each a fresh container bound
    once, when the report is made: only `tally` fills `passed` and
    `violations`, and the checks append to the two evidence lists."""

    __slots__ = ()

    def __new__(cls):
        return super().__new__(cls, {}, [], [], [])

    def tally(self, laws: Iterable[Law], orbit: Scroll | None = None) -> None:
        """Record the checks of laws, each (name, total, failures): failures
        holds the details of the checks that failed, empty for a law that
        passed.  Each failure is one violation, "name: " then the name of
        orbit (`_orbit_name`), where given, then its detail; the name is
        formatted only for a law that failed."""
        passed, violations = self.passed, self.violations
        for name, total, failures in laws:
            if failures:
                total -= len(failures)
                head = f"{name}: {_orbit_name(orbit) if orbit else ''}"
                violations += [head + detail for detail in failures]
            if total > 0:
                passed[name] = passed.get(name, 0) + total


def _is_torsor(scroll: Scroll, modulus: int, outer: int, inner: int) -> bool:
    """Whether s^a c^b (a < outer, b < inner) moves the first live index
    t0 of scroll once onto each of its live residues mod M = modulus, a
    multiple of P = len(scroll.unit), where outer is the number of
    co-successor orbits mod M.

    Points are offsets t - 1 mod M, as the steps read their tables.  The
    number of images is checked first, against F = M/P times the live
    residues of the unit (`Scroll.unit_live`).  Then only s is walked,
    outer times from the offset of t0, on the scroll's step advances: an
    offset v of M moves by the advance at v mod P.  Each s^a(t0) lies on
    a co-successor orbit mod M, read off the cycles mod P
    (`Scroll.period_cycles`) through the covering Z/M -> Z/P: a cycle i of
    length l and winding w lifts to g = gcd(w, F) orbits of l*F/g points,
    and r + x*P, r on cycle i with lift q, lies on orbit (i, (x - q) mod g).
    The law holds iff the walk meets outer distinct orbits of inner points
    each.  That is sound for any shape: the arcs c^b s^a(t0), b < inner,
    are then those whole orbits, disjoint, outer*inner images in all.  It
    is complete where outer is the number of orbits, as both laws pass it:
    the outer arcs of a bijection cover every orbit, one arc each.  Other
    shapes can be bijections it rejects, one orbit of 2*inner points tiled
    by two arcs, say.
    """
    succ = scroll.steps.advances[0]
    cycle, lift, cycles = scroll.period_cycles[1]
    live = scroll.unit_live
    period = len(succ)
    fold = modulus // period
    if outer * inner != fold * len(live):
        return False
    cur, orbits = live[0], set()  # orbit ids i*F + (x - q) mod g
    for _ in range(outer):
        u = cur % period
        i = cycle[u]
        path, w = cycles[i]
        g = gcd(w, fold)
        if len(path) * (fold // g) != inner:
            return False
        orbits.add(i * fold + (cur // period - lift[u]) % g)
        cur = (cur + succ[u]) % modulus
    return len(orbits) == outer


# rows one step of each letter moves down the scroll
_ROW_STEP = {x: rows for x, (rows, _) in _STEP_SHAPE.items()}


def _laps(indices: list[int], period: int, laps: int) -> list[int]:
    """t + k*period for k = 0..laps-1 (outer) and t in indices (inner): the
    tape indices that indices, ascending within one period, stand for over
    laps periods, ascending."""
    return [t + k * period for k in range(laps) for t in indices]


def _tape_laps(offsets: list[int], period: int, laps: int) -> list[int]:
    """The tape indices that offsets r < period stand for over laps
    periods, ascending (`_laps`): offset r is tape index r + 1, named
    mod period."""
    return _laps(sorted([(r + 1) % period for r in offsets]), period, laps)


def _uncovered(s: Scroll) -> str:
    """Why the tape's least period P does not cover the snakes, cycles mod
    sigma, or "" where P divides sigma, as on every simulated orbit."""
    period, sigma = len(s.unit), s.metrics.sigma
    return f"tape period {period} does not divide sigma {sigma}" if sigma % period else ""


def check_scroll(s: Scroll, rep: VerificationReport, extended: bool = True) -> None:
    """The per-orbit theorem suite, each law tallied once per orbit.

    Every law is evaluated on every orbit (`_scroll_laws`), each yielding
    one (law, checks, failure details) entry, tallied as it is yielded
    (`VerificationReport.tally`, which names s in each violation): where a
    law raises, the laws before it are tallied and none after it.  A law
    that passes costs that one entry: its details, the tape indices its
    failures stand for, and any sorting or counting that only orders or
    names failures are built only for a law that failed.

    Steps read the scroll's step table of each direction (`Scroll.steps`,
    `Scroll.inverse_steps`: letters and advances) at residue (t - 1) mod P,
    P the tape's least cyclic period (`Scroll.unit`), on its live residues
    (`Scroll.unit_live`).  The tape is P-periodic and every table a
    function of the residue mod P, so the
    per-residue laws (six-neighbour zeros, unique candidates, commutation,
    parallelogram, round trip) run on the tape indices [1, P] only: each
    count is multiplied by laps = m*n/P, and each failure at t stands for
    t + k*P, k = 0..laps-1, so the details are those of all m*n residues,
    in tape order.  The laws on the snakes and co-snakes mod sigma (successor
    advance linear, near-row distinctness, fibers) run on the live
    residues of the unit only: they read both maps' cycles mod P
    (`Scroll.period_cycles`) through the covering Z/sigma -> Z/P, each
    count is multiplied by F = sigma/P, and each failure at offset v stands
    for tape index (v + 1) mod P plus k*P, k = 0..F-1, in tape order; no
    map is walked mod sigma.
    The slither and co-slither simulations read the scroll's walks
    (`Scroll.slither_walk`, `Scroll.coslither_walk`), which the swallows
    reuse.  The laws on the snakes and on walks of the steps need all four
    steps to be maps of the live entries; where a live entry has no unique
    letter in some table, the unique-candidates or round-trip law reports
    it (the unique-candidates detail is the step's error,
    `Scroll.not_unique`, the successor's where it has none) and those laws
    are skipped for the orbit; they are skipped too where a letter's step
    lands on a dead entry.  Where P does not divide sigma, they are skipped
    with one violation, "snake laws skipped".
    """
    rep.tally(_scroll_laws(s, extended), s)


def _scroll_laws(s: Scroll, extended: bool) -> Iterator[Law]:
    """The laws of `check_scroll` on s, each yielded as (law, checks,
    failure details), in law order."""
    n, m = s.n, s.m
    met = s.metrics
    unit = s.unit
    period = len(unit)
    laps = m * n // period
    live = s.unit_live  # residues r of the unit: tape indices r + 1

    # local structure at every live entry of the unit: the unit and its
    # shifts as integers, one 0/1 byte per residue, so OR and AND act
    # bytewise; a nonzero byte of crowded is a live entry with a live
    # neighbour.  The tape is P-periodic, so X_(t + d) for t in [1, P] is
    # the unit rotated by d mod P (`rotations`).  A live t with a live
    # t - d is a live t - d with a live t + d, so the backward shifts are
    # read only where a forward one crowds an entry
    rotated = rotations(unit)
    here = rotated(0)
    crowded = 0
    for d in (1, n - 1, n):
        crowded |= here & rotated(d)
    failed = ()
    if crowded:
        for d in (-1, 1 - n, -n):
            crowded |= here & rotated(d)
        crowded_at = list(compress(range(1, period + 1), crowded.to_bytes(period, "big")))
        failed = [
            f" at ({(t - 1) // n},{(t - 1) % n + 1})" for t in _laps(crowded_at, period, laps)
        ]
    yield "six-neighbor zeros", laps * len(live), failed

    # unique candidates, then commutation, parallelogram and round trip at
    # each entry whose own and target entries have unique letters (an
    # entry stepping onto one without them is left to that one)
    # letters and signed advances of each step per residue, an advance None
    # where its letter has none
    ((sl, cl), (sa, ca)), ((pl, cpl), (pa, cpa)) = s.steps, s.inverse_steps
    not_unique, noncommuting, skewed, one_way, skipped = [], [], [], [], 0
    for r in live:
        d, e = sa[r], ca[r]
        if d is None or e is None:
            not_unique.append(r + 1)
            continue
        rs, rc = (r + d) % period, (r + e) % period
        es, dc = ca[rs], sa[rc]
        if es is None or dc is None or sa[rs] is None or ca[rc] is None:
            skipped += 1
            continue
        if d + es != e + dc:
            noncommuting.append(r + 1)
        if sl[rc] != sl[r] or cl[rs] != cl[r]:
            skewed.append(r + 1)
        if pa[rs] != -d or cpa[rc] != -e:
            one_way.append(r + 1)
    # each entry's step error, the successor's where it has none
    failed = [
        f": {s.not_unique(sa[(t - 1) % period] is not None, t)}"
        for t in _laps(not_unique, period, laps)
    ]
    yield "unique successor candidates", laps * len(live), failed
    for law, failed in (
        ("commutation", noncommuting),
        ("parallelogram", skewed),
        ("predecessor round trip", one_way),
    ):
        if failed:
            failed = [f" at tape {t}" for t in _laps(failed, period, laps)]
        yield law, laps * (len(live) - len(not_unique) - skipped), failed
    # the laws on snakes read them off the cycles mod P through the covering
    # Z/sigma -> Z/P, which needs P | sigma: where it fails they are skipped
    # with one violation, tallied as a law of no checks
    uncovered = _uncovered(s)
    if uncovered:
        yield "snake laws skipped", 0, (f": {uncovered}",)
    snakes = s.snakes if s.steps_are_maps and not uncovered else None

    # letter-count constraints and scale identities; T_tape, gcd(p, q) of
    # the words, against the simulated least period
    ws, wc = met.slither, met.coslither
    alpha_s, alpha_l = wc.count("S"), wc.count("L")
    held = [
        ("beta_D = 2 alpha - 1", ws.count("D") == 2 * (alpha_s + alpha_l) - 1),
        ("2bE + 3aS + 4aL = n+1", 2 * ws.count("E") + 3 * alpha_s + 4 * alpha_l == n + 1),
        ("deg, codeg coprime", gcd(met.deg, met.codeg) == 1),
        ("T_tape = gcd(p, q)", met.T_tape == period),
        ("orbit length formula", met.T_scroll == m),
    ]
    if snakes:
        held += [
            ("alpha from letters", snakes.alpha == len(wc)),
            ("beta from letters", snakes.beta == len(ws)),
        ]
    for law, holds in held:
        yield law, 1, () if holds else ("",)

    # sum-vector laws
    lam, cs = sum_vector(s).lam, col_scale(s)
    for law, holds in (
        ("lambda odd", lam % 2 == 1),
        ("lambda | gcd(n, ColScale)", gcd(n, cs) % lam == 0),
        ("lambda > 1 implies n >= 4 lambda", lam == 1 or n >= 4 * lam),
    ):
        yield law, 1, () if holds else ("",)

    # torsor: (a, b) in [0,beta) x [0,alpha) moves t0 once onto each live residue
    if snakes:
        torsor = _is_torsor(s, met.sigma, snakes.beta, snakes.alpha)
        yield "torsor simple transitivity", 1, () if torsor else ("",)

    if not extended:
        return

    # tape period: minimality and the divisibility characterization; a
    # shift by ell fixes the tape iff its least period P divides ell, so
    # the shifts in [1, 3*T_tape] failing it are the multiples of exactly
    # one of P and T_tape, and there are none where P = T_tape
    tape_period = met.T_tape
    bound, failed = 3 * tape_period, ()
    if period != tape_period:
        fixing = set(range(period, bound + 1, period))
        wrong = fixing ^ set(range(tape_period, bound + 1, tape_period))
        failed = [f" shift {ell}" for ell in sorted(wrong)]
    yield "tape shift iff T_tape divides", bound, failed

    if not snakes:
        return

    # step-word simulation agreement (slither and co-slither), on the
    # scroll's walks from the first live offset, which the swallows reuse
    for law, (_, simulated), word in (
        ("slither matches simulation", s.slither_walk, ws),
        ("co-slither matches simulation", s.coslither_walk, wc),
    ):
        same = cyclically_equal(simulated, word)
        yield law, 1, () if same else (f" simulated {simulated}",)

    # the rest read both maps mod sigma through the covering Z/sigma -> Z/P
    # on offsets t - 1 (as `_is_torsor` does): a cycle i mod P of winding w
    # lifts to g = gcd(w, F) snakes (co-snakes), F = sigma/P, and r + x*P,
    # r < P with lift q, lies on the one numbered (i, (x - q) mod g).  The
    # shift by P commutes with both maps, so each result at a live v < P
    # holds at v + k*P, k < F: each count is multiplied by F, and each
    # failure at v stands for each v + k*P, named by tape index in tape
    # order (`_tape_laps`)
    fold = met.sigma // period
    (s_cycle, s_lift, s_cycles), (c_cycle, c_lift, _) = s.period_cycles
    s_lifts, c_lifts = s.cycle_lifts  # per cycle, its first id and g
    # each live v < P is read once for its key for the fibers
    keys, looped = [], False
    for v in live:
        i, j = s_cycle[v], c_cycle[v]
        g, h = s_lifts[i][1], c_lifts[j][1]
        keys.append((i, j, (s_lift[v] - c_lift[v]) % gcd(g, h)))
        looped = looped or lcm(g, h) < fold

    # linearity of iterated successor advance: on a cycle of length l and
    # winding w, the walk's path holds v0 + A_k at k, and A_(k + l) = A_k +
    # w*P, so K = r*block steps from k advance A_(k + K) - A_k: with K =
    # c*l + j, that is (A_(k + j) - A_k) + c*w*P, A_(k + j) read off the
    # path over two laps
    block = len(ws) // met.deg
    rounds = range(1, min(3, met.deg) + 1)
    nonlinear = []
    for r in rounds:
        failed = []
        for path, w in s_cycles:
            turns, j = divmod(r * block, len(path))
            lap = w * period
            goal = r * met.p - turns * lap
            advances = list(map(sub, path[j:] + [x + lap for x in path[:j]], path))
            if advances.count(goal) != len(path):
                failed += [v for v, a in zip(path, advances) if a != goal]
        if failed:
            nonlinear += [f" r={r} from {t}" for t in _tape_laps(failed, period, fold)]
    yield "successor advance linear", len(rounds) * fold * len(live), nonlinear

    # co-snake distinctness within one row span: no live offset x < P shares
    # its co-snake with a live y, x < y < x + n (by the shift by P, every
    # pair is such a pair shifted).  The live offsets of [0, P + n - 1), the
    # unit cycled, are listed ascending with their co-snake ids
    # (`Scroll.ids`); each x < P is compared with the offsets up to x + n
    span = list(compress(range(period + n - 1), cycle(unit)))
    label = s.ids(1, span)
    near, shared = 0, []
    for a, x in enumerate(live):
        b = bisect_left(span, x + n)
        near += b - a - 1
        if label[a] in label[a + 1 : b]:
            shared += [(x, span[k] - x) for k in range(a + 1, b) if label[k] == label[a]]
    failed = []
    if shared:
        # each pair at tape indices x + 1 and x + 1 + d, named as by `_tape_laps`
        shared = sorted([((x + 1) % period, d) for x, d in shared])
        failed = [
            f" tape {v + k}, {v + k + d}"
            for k in range(0, fold * period, period)
            for v, d in shared
        ]
    yield "near-row co-snake distinctness", fold * near, failed

    # free action on the universal scroll: s^a c^b moves the start t0 for
    # every (a, b) != (0, 0) with |a| <= beta, |b| <= alpha.  A point of
    # the plane is its tape index and its row; a step at t reads its signed
    # advance and its letter at (t - 1) mod P and moves by that advance and
    # the letter's row step, negated for an inverse step.  Every advance of
    # s and c is positive, so each walk is monotone in the tape: a = 0, or
    # a and b of one sign, never fix t0, and c is walked from s^a(t0)
    # toward t0 only, stopping at the first step that reaches or passes it.
    # Each a fixes t0 for at most one b.  The rows of that walk matter
    # only where it stops on t0's tape index, so only then is it walked
    # again with its rows.  A point at tape index t is kept as its offset
    # t - 1, whose residue mod P indexes the tables
    start, alpha = live[0], snakes.alpha  # the offset of t0
    fixed = {}
    for sign, s_advances, s_letters, c_advances, c_letters in (
        (-1, pa, pl, ca, cl),
        (1, sa, sl, cpa, cpl),
    ):
        stop = sign * start
        y, row = start, 0  # s^a(t0) and its row, a = sign*1, sign*2, ...
        for a in range(sign, sign * (snakes.beta + 1), sign):
            x = y % period
            y, row = y + s_advances[x], row + sign * _ROW_STEP[s_letters[x]]
            z = y
            for b in range(1, alpha + 1):
                z += c_advances[z % period]
                if sign * z <= stop:
                    break
            if z == start:
                z, r = y, row
                for _ in range(b):
                    x = z % period
                    z, r = z + c_advances[x], r - sign * _ROW_STEP[c_letters[x]]
                if r == 0:
                    fixed[a] = f" exponents ({a},{-sign * b})"
    failed = [fixed[a] for a in sorted(fixed)]
    yield "free affine action", (2 * snakes.beta + 1) * (2 * alpha + 1) - 1, failed

    # fibers: residues mod sigma, singletons among the live residues.  v +
    # x*P and v' + x'*P share a snake and a co-snake iff v and v' lie on the
    # same cycles i (successor) and j (co-successor), and x' - x is
    # s_lift[v'] - s_lift[v] mod g_i and c_lift[v'] - c_lift[v] mod g_j.
    # For v' != v some x' solves both iff s_lift - c_lift agrees at v and
    # v' mod gcd(g_i, g_j); for v' = v some x' != x does iff lcm(g_i, g_j) < F
    failed = ()
    if looped or len(set(keys)) < len(keys):
        count = Counter(keys)
        met_twice = [
            v
            for v, key in zip(live, keys)
            if count[key] > 1 or lcm(s_lifts[key[0]][1], c_lifts[key[1]][1]) < fold
        ]
        failed = [f" tape {t}" for t in _tape_laps(met_twice, period, fold)]
    yield "fibers are residues mod sigma", fold * len(live), failed


# the laws `check_tables` checks at each omega, in the order it yields them
_OMEGA_LAWS = (
    "ouroboros counts match formula",
    "swallow cycle structure",
    "group order equals live count",
    "color-preserving conditions agree",
    "table slither power identity",
    "table torsor simple transitivity",
)


def _passes(omegas: int) -> list[Law]:
    """The entries of a run of omegas at which every table law passed, one
    per law; none for an empty run."""
    return [(law, omegas, ()) for law in _OMEGA_LAWS] if omegas else []


def check_tables(s: Scroll, omega_max: int, rep: VerificationReport) -> None:
    """Ouroboros counting, swallows, group invariants for omega = 1..omega_max;
    none runs unless all four steps are maps of the live entries and P
    divides sigma, and one violation names the reason it skipped.

    Each table law is evaluated on the table's scalars (`tables`' scalar
    cores) at each omega (`_table_laws`) and tallied as it is yielded
    (`VerificationReport.tally`, which names s in each violation).  An
    omega where all six laws pass only adds to a count, as a passing law
    costs `check_scroll` one entry: the count is yielded as one (law,
    omegas, ()) entry per law before the next omega with a failure and
    after the last.  An omega with a failure
    yields one (law, 1, failure details) entry per law, so the violations
    keep their omega order, and within one omega the law order, and
    `passed` its totals and key order.  A swallow that raises ends that
    omega after the swallow's entry.  A fault that raises out of an omega
    propagates once the omegas before it are tallied: the raising omega's
    own laws are not.  The evidence is kept as records, formatted only
    where read.

    Every value that does not read eta is a function of omega mod P_omega
    (`tables.omega_period`): the lifted counts read omega through
    gcd(w, omega*m*n/P) over the windings w, the predicted counts and the
    frequency condition through omega mod deg p_1 * codeg p_1, the swallow
    shifts and the scale condition through the table size mod sigma, and
    the power identity only bar_alpha and bar_beta.  Each is computed once
    per residue of omega mod P_omega and orbit, in one dict local to this
    call, a raising swallow included.  The torsor reads eta only through
    eta/bar_beta: where bar_beta divides eta its two size checks are free
    of omega and its walk reads the table only through gcd(w, omega*m*n/P),
    so its verdict is kept per residue too.  A value of a residue is the
    same check at every omega with that residue, as the per-residue laws
    of `check_scroll` count one least period times laps: each omega still
    counts, or fails, each law, under its own omega.  The group order
    law and the product-form evidence read eta and run at every omega, as
    does the torsor where bar_beta does not divide eta.
    """
    rep.tally(_table_laws(s, omega_max, rep), s)


def _table_laws(s: Scroll, omega_max: int, rep: VerificationReport) -> Iterator[Law]:
    """The laws of `check_tables` on s, yielded as it describes; the
    evidence lists of rep are appended to as the tables are read."""
    counts_law, swallow_law, order_law, colour_law, powers_law, torsor_law = _OMEGA_LAWS

    reason = "steps are not maps" if not s.steps_are_maps else _uncovered(s)
    if reason:
        yield "table laws skipped", 0, (f": {reason}",)
        return
    met = s.metrics

    deg_p1, codeg_p1 = s.fundamental_degrees
    crossed = met.codeg % deg_p1 == 0 and met.deg % codeg_p1 == 0
    yield "crossed degree divisibility", 1, () if crossed else ("",)
    if met.deg % deg_p1 != 0 or met.codeg % codeg_p1 != 0:
        rep.same_side_degree_failures.append(
            SameSideDegreeFailure(s.n, s.seed, deg_p1, met.deg, codeg_p1, met.codeg)
        )

    slither, coslither = met.slither, met.coslither
    snake_count, cosnake_count = s.snakes
    unit_size, unit_live = s.size, s.live_count
    fold = unit_size // len(s.unit)
    product_failures = rep.product_form_failures

    def periodic(omega: int, size: int) -> list:
        """The values of the omega-fold table of size residues that read
        omega only through omega mod P_omega: [bar_alpha, bar_beta, counts
        verdict, swallow verdict or the error the shifts raised, colour
        error text or None, power identity verdict, torsor verdict (None,
        filled in where bar_beta | eta)]."""
        alpha, beta = lifted_counts(s, omega * fold)
        counts = (alpha, beta) == predicted_counts(s, omega)
        try:
            shifts = swallow_shift(s, 0, size), swallow_shift(s, 1, size)
        except AssertionError as exc:
            return [alpha, beta, counts, exc, None, None, None]
        # a shift k of L labels has gcd(k, L) cycles, each of length
        # L / gcd(k, L): cycle type (deg p,)*bar_alpha iff gcd(k, L) = bar_alpha
        swallows = gcd(shifts[0], snake_count) == alpha and gcd(shifts[1], cosnake_count) == beta
        try:
            color_preserving(s, omega, size, alpha, beta, shifts)
            colour = None
        except AssertionError as exc:
            colour = str(exc)
        cut_slither, cut_coslither = table_words(s, alpha, beta)
        powers_up = cyclically_equal(
            cut_slither * (cosnake_count // beta), slither
        ) and cyclically_equal(cut_coslither * (snake_count // alpha), coslither)
        return [alpha, beta, counts, swallows, colour, powers_up, None]

    # the values of periodic, computed once per omega mod P_omega; clean
    # counts the passing omegas not yet tallied
    period, memo, clean = omega_period(s), {}, 0
    try:
        for omega in range(1, omega_max + 1):
            size, eta = omega * unit_size, omega * unit_live
            known = memo.get(omega % period)
            if known is None:
                known = memo[omega % period] = periodic(omega, size)
            alpha, beta, counts, swallows, colour, powers_up, torsor = known
            raised = isinstance(swallows, AssertionError)
            if not raised:
                factors = group_factors(s, eta, alpha, beta)
                order = factors[0] * factors[1]
                if order == eta:
                    by_s, by_c = product_pair(alpha, eta // alpha), product_pair(beta, eta // beta)
                    if not factors == by_s == by_c:
                        product_failures.append(
                            ProductFormFailure(s.n, s.seed, omega, factors, by_s, by_c)
                        )
                # torsor of the finite table group: the walk of bar_beta
                # successor steps meets each of the bar_beta co-successor
                # orbits once, each of eta/bar_beta points; the image count
                # checks the closed-form eta against the number of live
                # residues.  Where bar_beta | eta both size checks are free
                # of omega and the walk reads the table only through
                # gcd(w, omega*m*n/P), so the verdict is kept per residue
                if eta % beta:
                    torsor = _is_torsor(s, size, beta, eta // beta)
                elif torsor is None:
                    torsor = known[6] = _is_torsor(s, size, beta, eta // beta)
                if counts and swallows and order == eta and colour is None and powers_up and torsor:
                    clean += 1
                    continue
            yield from _passes(clean)
            clean = 0
            at = f" omega={omega}"
            yield counts_law, 1, () if counts else (at,)
            if raised:
                yield swallow_law, 1, (f"{at}: {swallows}",)
                continue
            yield swallow_law, 1, () if swallows else (at,)
            failed = (f"{at}: group order {order} != live count {eta}",) if order != eta else ()
            yield order_law, 1, failed
            yield colour_law, 1, (f"{at}: {colour}",) if colour is not None else ()
            yield powers_law, 1, () if powers_up else (at,)
            yield torsor_law, 1, () if torsor else (at,)
    except Exception:
        # a fault raised at this omega: the omegas before it still count
        yield from _passes(clean)
        raise
    yield from _passes(clean)


def run_verification(
    n_min: int = 2,
    n_max: int = 14,
    omega_max: int = 0,
    extended: bool = True,
    completeness: bool = False,
) -> VerificationReport:
    if omega_max < 0:
        raise ValueError(f"omega_max must be non-negative, got {omega_max}")
    if n_min > n_max:
        raise ValueError(f"empty range: n_min {n_min} > n_max {n_max}")
    rep = VerificationReport()
    for n in range(n_min, n_max + 1):
        periods = set()
        for s in all_orbits(n):
            check_scroll(s, rep, extended=extended)
            if omega_max:
                check_tables(s, omega_max, rep)
            if completeness:
                periods.add(canonical_binary(s.unit.translate(_CHARS).decode()))
        if completeness:  # the simulated least periods are the classified ones
            classified = {rec.period for rec in enumerate_ticker_tapes(n)}
            failed = () if periods == classified else (
                f"n={n}: {len(periods)} simulated vs {len(classified)} classified",
            )
            rep.tally([("classification completeness", 1, failed)])
    return rep
