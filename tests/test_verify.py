"""The brute-force suite itself stays clean on small cycles."""

import ast
from collections import Counter
from itertools import product
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from weakref import ref

import pytest

from snakescroll import cycles, report, scroll, tables, verify
from snakescroll.cycles import all_orbits, orbit
from snakescroll.report import orbit_report
from snakescroll.scroll import Scroll, StepTable
from snakescroll.slither import _STEP_SHAPE
from snakescroll.sums import SumVector
from snakescroll.tables import swallow_shift
from snakescroll.verify import (
    VerificationReport,
    check_scroll,
    check_tables,
    run_verification,
)

from oracles import (
    RESIDUE_LAWS,
    advance_linear_law,
    fibers_law,
    free_action_law,
    inject_letters,
    letters_of,
    live_residues,
    map_torsor,
    near_row_law,
    reduced_maps,
    residue_laws,
    table_counts,
    tape_shift_law,
    vector,
)

FREE_ACTION, NEAR_ROW = "free affine action", "near-row co-snake distinctness"
FIBERS, LINEAR = "fibers are residues mod sigma", "successor advance linear"
# the table laws checked at each omega, in the order `check_tables` yields them
OMEGA_LAWS = (
    "ouroboros counts match formula",
    "swallow cycle structure",
    "group order equals live count",
    "color-preserving conditions agree",
    "table slither power identity",
    "table torsor simple transitivity",
)


def test_small_cycles_are_clean():
    rep = run_verification(2, 9, omega_max=3, extended=True, completeness=True)
    assert not rep.violations
    assert rep.passed["commutation"] > 0
    assert rep.passed["torsor simple transitivity"] > 0
    assert rep.passed["classification completeness"] == 8


def test_completeness_simulates_each_orbit_once(monkeypatch):
    # the least periods are collected while each orbit is checked: one
    # all_orbits per n, and no orbit's rows are built
    simulated = []
    original = cycles.all_orbits

    def counted(n):
        simulated.append(n)
        return original(n)

    def raising(_orbit):
        raise AssertionError("Scroll.rows read")

    monkeypatch.setattr(verify, "all_orbits", counted)
    monkeypatch.setattr(Scroll, "rows", property(raising))
    rep = run_verification(2, 14, extended=False, completeness=True)
    assert not rep.violations
    assert rep.passed["classification completeness"] == 13
    assert simulated == list(range(2, 15))


def test_the_suite_holds_one_checked_scroll_at_a_time(monkeypatch):
    # all_orbits yields each scroll as it finds it, and run_verification
    # drops it once checked: when the next one is found, only the scroll
    # the loop still names is alive of those yielded before
    alive = []
    original = cycles.all_orbits

    def watched(n):
        yielded = []
        for s in original(n):
            alive.append(sum(r() is not None for r in yielded[:-1]))
            yielded.append(ref(s))
            yield s
            del s

    monkeypatch.setattr(verify, "all_orbits", watched)
    rep = run_verification(2, 12, omega_max=2, completeness=True)
    assert not rep.violations
    assert len(alive) == 51 and not any(alive)


def test_the_default_range_is_n_2_to_14():
    # the library's defaults are the CLI's, --n-min 2 and --n-max 14
    assert run_verification(n_max=2) == run_verification(2, 2)
    assert run_verification(14) == run_verification(14, 14)


def test_a_missing_tape_class_fails_completeness(monkeypatch):
    # one class dropped from the classification at n = 11: the simulated
    # least periods no longer match, and the context gives both counts
    original = verify.enumerate_ticker_tapes

    def dropping(n):
        return original(n)[1:] if n == 11 else original(n)

    monkeypatch.setattr(verify, "enumerate_ticker_tapes", dropping)
    rep = run_verification(10, 11, extended=False, completeness=True)
    law = "classification completeness"
    classes = len(original(11))
    assert rep.violations == [f"{law}: n=11: {classes} simulated vs {classes - 1} classified"]
    assert rep.passed[law] == 1


def _recording_walks(monkeypatch) -> list:
    """The moduli walk_cycles is called at, the length of its advance
    arrays, in call order: P = len(unit) for each scroll it walks."""
    calls = []
    original = scroll.walk_cycles

    def counted(advances, live):
        calls.append(len(advances[0]))
        return original(advances, live)

    monkeypatch.setattr(scroll, "walk_cycles", counted)
    return calls


def test_no_table_walks_its_maps(monkeypatch):
    # table counts are lifted from the windings, the table torsor walks the
    # period advances and the swallows read the labels mod sigma off the
    # cycles mod T: each orbit walks its maps once, mod its tape period,
    # and never mod sigma or a table's size
    calls = _recording_walks(monkeypatch)
    rep = run_verification(2, 9, omega_max=3)
    assert not rep.violations
    scrolls = [o for n in range(2, 10) for o in all_orbits(n)]
    assert len(scrolls) == 18
    assert calls == [len(s.unit) for s in scrolls]
    assert sum(rep.passed.values()) == 4320


def test_alternating_scrolls_walk_each_once(monkeypatch):
    # each scroll keeps its cycles mod T and the labels read off them:
    # reading the labels and swallows of two scrolls and their tables in
    # turn walks each scroll once, not once per switch
    calls = _recording_walks(monkeypatch)
    a, b = orbit("00001010000"), orbit("101010001010")
    reads = [
        [
            a.snake_labels,
            b.snake_labels,
            swallow_shift(a, 0, 2 * a.size),
            swallow_shift(b, 1, 3 * b.size),
        ]
        for _ in range(3)
    ]
    assert calls == [len(a.unit), len(b.unit)]
    assert all(x is y for later in reads[1:] for x, y in zip(later[:2], reads[0][:2]))
    assert all(later[2:] == reads[0][2:] for later in reads[1:])


def test_each_scroll_walks_its_slither_and_coslither_once(monkeypatch):
    # the simulation laws, the swallows of every omega and the orbit report
    # all read the scroll's one walk per word: two walks in all
    calls = []
    original = Scroll._walk

    def counted(self, step, count):
        calls.append(count)
        return original(self, step, count)

    monkeypatch.setattr(Scroll, "_walk", counted)
    s = orbit("00001010000")
    rep = VerificationReport()
    check_scroll(s, rep)
    check_tables(s, 3, rep)
    report = orbit_report(s, 3)
    assert not rep.violations and report["agreement"]["slitherMatchesSimulation"]
    assert calls == [s.snakes.beta, s.snakes.alpha] == [6, 2]


def test_table_laws_build_no_table_records(monkeypatch):
    # the table laws read each table's scalars off the scalar cores, a
    # table being its scroll and omega: over every orbit with n <= 10 and
    # omega <= 12 each scroll builds its swallow orders once
    built = []
    orders = Scroll.__dict__["swallow_orders"]
    original = orders.func

    def counted(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(orders, "func", counted)
    scrolls = [o for n in range(2, 11) for o in all_orbits(n)]
    rep = VerificationReport()
    for s in scrolls:
        check_tables(s, 12, rep)
    assert not rep.violations
    assert len(scrolls) == 23
    assert len(built) == len(scrolls) and all(a is b for a, b in zip(built, scrolls))
    assert rep.passed == {
        "crossed degree divisibility": 23,
        **{law: 276 for law in OMEGA_LAWS},
    }
    assert list(rep.passed)[1:] == list(OMEGA_LAWS)
    assert (len(rep.product_form_failures), len(rep.same_side_degree_failures)) == (167, 9)


def _check(rep, name, condition, context, omega=0):
    """Record one check as it is made; a failure's context ends with its
    omega, if given."""
    if condition:
        rep.passed[name] = rep.passed.get(name, 0) + 1
    else:
        rep.violations.append(f"{name}: {context} omega={omega}" if omega else f"{name}: {context}")


def _reference_table_laws(s, omega_max, rep):
    """The table laws of `check_tables`, every value computed afresh at each
    omega and each check recorded as it is made (`_check`): the lifted and
    predicted counts, the swallow shifts, the group factors, the colour
    conditions, the table words and the torsor are read through `verify`,
    so a patch there reaches both."""
    ctx, met = f"n={s.n} seed={s.seed}", s.metrics
    deg_p1, codeg_p1 = s.fundamental_degrees
    _check(
        rep,
        "crossed degree divisibility",
        met.codeg % deg_p1 == 0 and met.deg % codeg_p1 == 0,
        ctx,
    )
    if met.deg % deg_p1 != 0 or met.codeg % codeg_p1 != 0:
        rep.same_side_degree_failures.append(
            verify.SameSideDegreeFailure(s.n, s.seed, deg_p1, met.deg, codeg_p1, met.codeg)
        )
    snakes = s.snakes
    for omega in range(1, omega_max + 1):
        size, eta = omega * s.size, omega * s.live_count
        alpha, beta = verify.lifted_counts(s, size // len(s.unit))
        counts = (alpha, beta) == verify.predicted_counts(s, omega)
        _check(rep, "ouroboros counts match formula", counts, ctx, omega)
        try:
            shifts = verify.swallow_shift(s, 0, size), verify.swallow_shift(s, 1, size)
        except AssertionError as exc:
            rep.violations.append(f"swallow cycle structure: {ctx} omega={omega}: {exc}")
            continue
        structure = (gcd(shifts[0], snakes.alpha), gcd(shifts[1], snakes.beta)) == (alpha, beta)
        _check(rep, "swallow cycle structure", structure, ctx, omega)
        factors = verify.group_factors(s, eta, alpha, beta)
        order = factors[0] * factors[1]
        if order == eta:
            _check(rep, "group order equals live count", True, ctx)
            by_s = tables.product_pair(alpha, eta // alpha)
            by_c = tables.product_pair(beta, eta // beta)
            if factors != by_s or factors != by_c:
                rep.product_form_failures.append(
                    verify.ProductFormFailure(s.n, s.seed, omega, factors, by_s, by_c)
                )
        else:
            rep.violations.append(
                f"group order equals live count: {ctx} omega={omega}: "
                f"group order {order} != live count {eta}"
            )
        law = "color-preserving conditions agree"
        try:
            verify.color_preserving(s, omega, size, alpha, beta, shifts)
            _check(rep, law, True, ctx)
        except AssertionError as exc:
            rep.violations.append(f"{law}: {ctx} omega={omega}: {exc}")
        words = verify.table_words(s, alpha, beta)
        powers = verify.cyclically_equal(
            words[0] * (snakes.beta // beta), met.slither
        ) and verify.cyclically_equal(words[1] * (snakes.alpha // alpha), met.coslither)
        _check(rep, "table slither power identity", powers, ctx, omega)
        torsor = verify._is_torsor(s, size, beta, eta // beta)
        _check(rep, "table torsor simple transitivity", torsor, ctx, omega)


def _breaking_swallows_and_words(monkeypatch):
    # a swallow raising on every table whose size is a multiple of sigma,
    # and a table slither (co-slither) one letter too long where each
    # co-snake (snake) is its own co-ouroboros (ouroboros): each a function
    # of the key its value is computed once per, and of all of it
    shift, words = verify.swallow_shift, verify.table_words

    def raising(s, which, size):
        if size % s.metrics.sigma == 0:
            raise AssertionError(f"no swallow at size {size % s.metrics.sigma}")
        return shift(s, which, size)

    def longer(s, alpha, beta):
        slither, coslither = words(s, alpha, beta)
        snakes = s.snakes
        return slither + "D" * (beta == snakes.beta), coslither + "S" * (alpha == snakes.alpha)

    monkeypatch.setattr(verify, "swallow_shift", raising)
    monkeypatch.setattr(verify, "table_words", longer)


def _breaking_counts_colour_and_torsor(monkeypatch):
    # one more co-ouroboros lifted on every table whose size is a multiple
    # of sigma, colour conditions that disagree wherever deg p_1 divides
    # omega, named by the table size mod sigma, and a torsor walk rejected
    # wherever bar_beta is even: each a function of omega mod P_omega, the
    # key the counts, the colour verdict and the torsor are kept per
    lifted, preserving, torsor = verify.lifted_counts, verify.color_preserving, verify._is_torsor

    def one_more(s, fold):
        alpha, beta = lifted(s, fold)
        return alpha, beta + (fold * len(s.unit) % s.metrics.sigma == 0)

    def disagreeing(s, omega, size, alpha, beta, shifts):
        if omega % s.fundamental_degrees[0] == 0:
            raise AssertionError(f"colour fault at size {size % s.metrics.sigma} mod sigma")
        return preserving(s, omega, size, alpha, beta, shifts)

    def rejecting(s, modulus, outer, inner):
        return outer % 2 == 1 and torsor(s, modulus, outer, inner)

    monkeypatch.setattr(verify, "lifted_counts", one_more)
    monkeypatch.setattr(verify, "color_preserving", disagreeing)
    monkeypatch.setattr(verify, "_is_torsor", rejecting)


def _miscounted():
    """The running example with 23 live residues, not 22 (as in
    `test_a_wrong_live_count_fails_the_group_order_law`): at odd omega,
    bar_beta (2, or 6 where 3 divides omega) does not divide
    eta = 23*omega, so the table torsor runs unmemoized: it passes at
    omega = 1 and 3, where bar_beta*(eta // bar_beta) = 22*omega, and fails
    at omega = 7 and 9, one omega-period later, as at every other omega."""
    s = orbit("00001010000")
    vars(s)["live_count"] = 23
    return s


@pytest.mark.parametrize(
    "breaking", [None, _breaking_swallows_and_words, _breaking_counts_colour_and_torsor]
)
def test_table_laws_match_a_reference_without_memo(breaking, monkeypatch):
    # every value but the group factors and the product-form evidence is
    # computed once per orbit and omega mod P_omega (the torsor only where
    # bar_beta | eta); every orbit with n <= 13 and omega <= 60, two
    # omega-periods of each, gets the passes, the violations in omega
    # order and the evidence of a fresh evaluation at every omega, both on
    # the true values and where the values raise or fail.  A miscounted
    # scroll, on its own, holds the torsor's unmemoized path to the same
    broken = {
        None: set(),
        _breaking_swallows_and_words: {"swallow cycle structure", "table slither power identity"},
        _breaking_counts_colour_and_torsor: set(OMEGA_LAWS),
    }[breaking]
    if breaking:
        breaking(monkeypatch)
    scrolls = [o for n in range(2, 14) for o in all_orbits(n)]
    assert len(scrolls) == 68
    assert max(map(tables.omega_period, scrolls)) == 28
    miscounted = _miscounted()
    assert tables.omega_period(miscounted) == 6
    for group in (scrolls, [miscounted]):
        got, want = VerificationReport(), VerificationReport()
        for s in group:
            check_tables(s, 60, got)
            _reference_table_laws(s, 60, want)
        assert got.passed == want.passed
        assert list(got.passed) == list(want.passed)
        assert got.violations == want.violations
        assert got.product_form_failures == want.product_form_failures
        assert got.same_side_degree_failures == want.same_side_degree_failures
        if group is scrolls:
            assert {v.split(":")[0] for v in got.violations} == broken
    if not breaking:
        torsor = "table torsor simple transitivity: n=11 seed=00001010000"
        failed = [v for v in got.violations if v.startswith(torsor)]
        assert failed == [f"{torsor} omega={omega}" for omega in range(2, 61) if omega != 3]


@pytest.mark.parametrize(
    "seed, fault, periods",
    [
        # the successor's one cycle mod P = 7 read as winding 4, not 2:
        # 4 / gcd(4, 11) = 4
        ("00001010000", lambda s: _windings(s, 0, [4]), (6, 12)),
        # sigma read as 84, not 42: 84 / gcd(84, 77) = 12
        ("00001010000", lambda s: _metrics(s, sigma=84), (6, 12)),
        # deg p_1 read as 4, not 2: deg p_1 * codeg p_1 = 12
        ("00001010000", lambda s: vars(s).update(fundamental_degrees=(4, 3)), (6, 12)),
        # P = 3 and m*n = 6, so a table's fold is m*n/P = 2: the successor's
        # one cycle read as winding 3, not 1, gives 3 / gcd(3, 2) = 3
        ("00", lambda s: _windings(s, 0, [3]), (1, 3)),
    ],
    ids=["winding", "sigma", "degree", "folded winding"],
)
def test_a_wrong_winding_sigma_or_degree_changes_the_omega_period(seed, fault, periods):
    # P_omega is read off the values the laws read, so a fault in one of
    # them moves it, and the table laws still match a fresh evaluation at
    # every omega over three of the new periods
    s = orbit(seed)
    s.snakes, s.cycle_lifts, s.swallow_orders
    assert tables.omega_period(s) == periods[0]
    fault(s)
    assert tables.omega_period(s) == periods[1]
    got, want = VerificationReport(), VerificationReport()
    check_tables(s, 3 * periods[1], got)
    _reference_table_laws(s, 3 * periods[1], want)
    assert got.violations and got.violations == want.violations
    assert got.passed == want.passed
    assert got.product_form_failures == want.product_form_failures


def test_table_laws_evaluate_each_periodic_value_once_per_residue(monkeypatch):
    # in `check_tables`, the counts are lifted and the table torsor walked
    # once per orbit and omega mod P_omega, and the torsor again at each
    # omega where bar_beta does not divide eta: over the 276 tables of
    # n = 2..10, omega <= 12 there are 54 residues and no such omega
    within, calls = [], Counter()
    for name in ("lifted_counts", "_is_torsor"):

        def counted(*args, name=name, original=getattr(verify, name)):
            calls[name] += bool(within)
            return original(*args)

        monkeypatch.setattr(verify, name, counted)
    tables_check = verify.check_tables

    def checked(s, omega_max, rep):
        within.append(s)
        tables_check(s, omega_max, rep)
        within.pop()

    monkeypatch.setattr(verify, "check_tables", checked)
    rep = run_verification(2, 10, omega_max=12, extended=False)
    assert not rep.violations
    assert rep.passed["table torsor simple transitivity"] == 276
    orbits = [o for n in range(2, 11) for o in all_orbits(n)]
    omegas = range(1, 13)
    residues = sum(len({omega % tables.omega_period(s) for omega in omegas}) for s in orbits)
    undivided = sum(
        omega * s.live_count % table_counts(s, omega)[1] > 0 for s in orbits for omega in omegas
    )
    assert (residues, undivided) == (54, 0)
    assert calls == {"lifted_counts": residues, "_is_torsor": residues + undivided}


def _torsor_shapes(count: int, law: tuple[int, int]):
    """The law's (outer, inner), every factor pair of count, and one pair
    of the wrong product."""
    yield law
    yield from ((d, count // d) for d in range(1, count + 1) if count % d == 0)
    yield count + 1, 1


def _orbit_count(step: list, live: list) -> int:
    """Number of orbits of the permutation step on the residues live; on
    the oracle's reduced map, a cheaper walk than `walked_counts`' of the
    tape steps."""
    seen, count = set(), 0
    for r in live:
        if r not in seen:
            count += 1
            while r not in seen:
                seen.add(r)
                r = step[r]
    return count


def _held_to_the_oracle(s, modulus: int, shapes) -> int:
    """Hold `_is_torsor` at each shape to `map_torsor`: a pass is a
    bijection on every shape, and where outer is the number of co-successor
    orbits mod M the two agree; the number of such agreeing shapes."""
    maps, live = reduced_maps(s, modulus), live_residues(s, modulus)
    orbits, equal = _orbit_count(maps[1], live), 0
    for shape in shapes:
        got, oracle = verify._is_torsor(s, modulus, *shape), map_torsor(maps, live, *shape)
        assert oracle or not got, shape
        if shape[0] == orbits:
            assert got == oracle, shape
            equal += 1
    return equal


def test_torsor_walk_matches_the_map_oracle():
    # the walk on the period advances is sound against the walk on the
    # reduced maps mod M for the law's shape and every other factor pair,
    # and agrees with it where outer is the number of co-successor orbits,
    # on every orbit mod sigma with n <= 16 and all 816 tables with
    # n <= 13, omega <= 12
    tables = equal = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            moduli = [(s.metrics.sigma, (s.snakes.beta, s.snakes.alpha))]
            if n <= 13:
                for omega in range(1, 13):
                    beta, eta = table_counts(s, omega)[1], omega * s.live_count
                    moduli.append((omega * s.size, (beta, eta // beta)))
                    tables += 1
            for modulus, law in moduli:
                assert verify._is_torsor(s, modulus, *law)
                shapes = _torsor_shapes(len(live_residues(s, modulus)), law)
                equal += _held_to_the_oracle(s, modulus, shapes)
    assert tables == 816
    assert equal == 1950


def test_torsor_matches_the_map_oracle_past_omega_12():
    # the law's shape and its transpose on all 1092 tables with n = 14..16
    # and 13 <= omega <= 24, where the orbits mod M are longest
    tables = equal = 0
    for n in range(14, 17):
        for s in all_orbits(n):
            for omega in range(13, 25):
                size, beta = omega * s.size, table_counts(s, omega)[1]
                law = beta, omega * s.live_count // beta
                assert verify._is_torsor(s, size, *law)
                equal += _held_to_the_oracle(s, size, (law, law[::-1]))
                tables += 1
    assert tables == 1092
    assert equal == 1092


def _advances_scroll(succ: list, co_succ: list) -> SimpleNamespace:
    """A scroll of tape period P = len(succ) whose steps are given by their
    advances per offset r = t - 1 mod P (None on dead residues), with its
    steps and tape, one period of m*n = P residues, given in the test's own
    arithmetic: the oracle steps it by those advances (`oracles.step`)."""
    period = len(succ)
    s = SimpleNamespace(
        steps=StepTable(None, (succ, co_succ)),  # no letters: only advances are read
        unit_live=[r for r, d in enumerate(succ) if d is not None],
        # X_t at t - 1, for t in [1, P]
        unit=bytes(d is not None for d in succ),
        m=1,
        n=period,
    )
    s.period_cycles = Scroll.period_cycles.func(s)
    return s


def test_torsor_matches_the_map_oracle_on_arbitrary_advances():
    # steps that need not commute, on tape period 2: the co-successor's
    # cycle of length 2 winds 1..5 times, so its lifts are orbits of
    # several laps; every factor pair of the live count, against the
    # oracle walk
    calls = equal = 0
    for a0, a1, b0, b1 in product(range(4), range(4), (1, 3, 5), (1, 3, 5)):
        if (a0 - a1) % 2:
            continue  # the successor must permute the residues mod 2
        s = _advances_scroll([a0, a1], [b0, b1])
        for fold in (5, 6, 7, 9):
            count = len(live_residues(s, 2 * fold))
            shapes = list(_torsor_shapes(count, (1, count)))
            equal += _held_to_the_oracle(s, 2 * fold, shapes)
            calls += len(shapes)
    assert calls == 2016
    assert equal == 488


def test_no_table_is_labelled(monkeypatch):
    # table counts are lifted from the windings, which the walk of each
    # scroll's two maps mod its tape period gives: the core laws and the
    # swallows walk once mod T, the swallows reading the snake labels mod
    # sigma off that walk, and never at sigma or a table's modulus
    calls = _recording_walks(monkeypatch)
    rep = run_verification(2, 9, omega_max=3, extended=False)
    assert not rep.violations
    scrolls = [o for n in range(2, 10) for o in all_orbits(n)]
    assert calls == [len(s.unit) for s in scrolls]
    assert len(calls) == len(scrolls) == 18


def test_known_evidence_lists_populate():
    rep = run_verification(5, 5, omega_max=1)
    assert not rep.violations
    # n=5 seed 00100 has deg(p1)=2, deg=3: same-side divisibility fails
    assert any(record.n == 5 for record in rep.same_side_degree_failures)


def test_evidence_records_read_as_the_named_counterexamples():
    # n = 5, seed 00100: the same-side degree record, and the product-form
    # record of omega = 4, whose group is Z_20, not Z_2 x Z_10; each record
    # keeps its values and reads as its one line of text
    rep = run_verification(5, 5, omega_max=4)
    same_side = verify.SameSideDegreeFailure(5, "00100", 2, 3, 3, 2)
    product = verify.ProductFormFailure(5, "00100", 4, (1, 20), (2, 10), (1, 20))
    assert rep.same_side_degree_failures == [same_side]
    assert rep.product_form_failures[-1] == product
    assert str(same_side) == "n=5 seed=00100: deg(p1)=2 deg=3 codeg(p1)=3 codeg=2"
    assert str(product) == "n=5 seed=00100 omega=4: factors (20,), products (2, 10) / (20,)"
    assert str(product._replace(factors=(2, 10), by_snakes=(1, 2))) == (
        "n=5 seed=00100 omega=4: factors (2, 10), products (2,) / (20,)"
    )


def _tallied(monkeypatch) -> list:
    """The entries each tally is handed, one list per call."""
    calls = []
    tally = VerificationReport.tally

    def recorded(rep, laws, orbit=None):
        calls.append([])
        tally(rep, (calls[-1].append(law) or law for law in laws), orbit)

    monkeypatch.setattr(VerificationReport, "tally", recorded)
    return calls


def test_passing_omegas_reach_the_tally_as_one_entry_per_law(monkeypatch):
    # every orbit with n <= 10 passes every table law at every omega <= 12:
    # `crossed` and one entry per table law, counting the twelve omegas
    calls = _tallied(monkeypatch)
    scrolls = [o for n in range(2, 11) for o in all_orbits(n)]
    rep = VerificationReport()
    for s in scrolls:
        check_tables(s, 12, rep)
    assert not rep.violations
    clean = [("crossed degree divisibility", 1, ())] + [(law, 12, ()) for law in OMEGA_LAWS]
    assert calls == [clean] * len(scrolls)


def test_a_failing_omega_flushes_the_passing_omegas_before_it(monkeypatch):
    # colour conditions that disagree at omega = 5 only (P_omega = 6): the
    # four passing omegas before it are one entry per law, omega 5 yields
    # its six, and omega 6 one more per law after the last omega
    s = orbit("00001010000")
    assert tables.omega_period(s) == 6
    preserving = verify.color_preserving

    def disagreeing(s, omega, size, alpha, beta, shifts):
        if omega == 5:
            raise AssertionError("colour fault")
        return preserving(s, omega, size, alpha, beta, shifts)

    monkeypatch.setattr(verify, "color_preserving", disagreeing)
    calls = _tallied(monkeypatch)
    rep, want = VerificationReport(), VerificationReport()
    check_tables(s, 6, rep)
    at = "n=11 seed=00001010000 omega=5"
    failed = {"color-preserving conditions agree": (" omega=5: colour fault",)}
    assert calls == [
        [("crossed degree divisibility", 1, ())]
        + [(law, 4, ()) for law in OMEGA_LAWS]
        + [(law, 1, failed.get(law, ())) for law in OMEGA_LAWS]
        + [(law, 1, ()) for law in OMEGA_LAWS]
    ]
    _reference_table_laws(s, 6, want)
    violation = f"color-preserving conditions agree: {at}: colour fault"
    assert rep.violations == want.violations == [violation]
    assert list(rep.passed.items()) == list(want.passed.items())


def test_a_fault_raising_out_of_an_omega_keeps_the_omegas_before_it(monkeypatch):
    # group factors that raise at omega = 5: the exception propagates, and
    # the report holds every earlier omega's passes and evidence, as a run
    # to omega = 4 does; the laws of omega = 5 itself are not tallied
    s = orbit("00001010000")
    factors = verify.group_factors

    def raising(s, eta, alpha, beta):
        if eta == 5 * s.live_count:
            raise ZeroDivisionError("group fault")
        return factors(s, eta, alpha, beta)

    monkeypatch.setattr(verify, "group_factors", raising)
    rep, want = VerificationReport(), VerificationReport()
    with pytest.raises(ZeroDivisionError, match="group fault"):
        check_tables(s, 12, rep)
    _reference_table_laws(s, 4, want)
    assert rep == want
    assert list(rep.passed.items()) == list(want.passed.items())
    assert rep.passed["table torsor simple transitivity"] == 4


def test_tables_are_clean_for_n14_to_16():
    # past the n <= 13 range of criterion 5: every table law holds on every
    # table with n = 14..16 and omega <= 12
    rep = run_verification(14, 16, omega_max=12, extended=False)
    assert not rep.violations, rep.violations[:10]
    orbits = sum(len(list(all_orbits(n))) for n in range(14, 17))
    assert rep.passed["crossed degree divisibility"] == orbits
    for law in (
        "ouroboros counts match formula",
        "swallow cycle structure",
        "group order equals live count",
        "color-preserving conditions agree",
        "table slither power identity",
        "table torsor simple transitivity",
    ):
        assert rep.passed[law] == 12 * orbits, law
    assert sum(rep.passed.values()) == 101029
    # documented evidence, not violations
    assert len(rep.product_form_failures) == 715
    assert len(rep.same_side_degree_failures) == 46


def test_theorem_suite_n17_to_18():
    # past the n <= 16 range of criterion 4
    rep = run_verification(17, 18, extended=True)
    assert not rep.violations, rep.violations[:10]
    assert sum(rep.passed.values()) == 116035 + 197531


def test_shared_label_pair_is_a_fiber_violation():
    # the co-successor cycle mod P of the second live tape index u mod P
    # renumbered as that of the first, t (at offsets t - 1 and u - 1): the
    # successor has one cycle mod P here, so t and u share both cycles, and
    # with F = sigma/P = 2 they meet in one fiber at each lift.  Each
    # co-successor cycle has winding 1, so it lifts to one co-snake: the
    # labels mod sigma get the same fault when u's co-snake is relabelled
    # as t's, and the oracle is given those labels
    s = orbit("00000010000")
    period, sigma = len(s.unit), s.metrics.sigma
    assert (period, sigma) == (21, 42)
    (s_cycle, *_), (c_cycle, lift, cycles) = s.period_cycles
    assert len(set(s_cycle) - {None}) == 1 and all(w == 1 for _, w in cycles)
    t, u = live_residues(s, period)[:2]
    snake, cosnake = s.snake_labels
    c_cycle = list(c_cycle)
    c_cycle[u - 1] = c_cycle[t - 1]
    vars(s)["period_cycles"] = s.period_cycles[0], (c_cycle, lift, cycles)
    cosnake = list(cosnake)
    for x in range(u, sigma, period):
        cosnake[x] = cosnake[t]
    vars(s)["snake_labels"] = snake, cosnake
    assert _law_results(s, FIBERS) == fibers_law(s, s.snake_labels) == (
        len(live_residues(s, sigma)) - 4,
        [f"{FIBERS}: n=11 seed=00000010000 tape {x}" for x in (t, u, t + period, u + period)],
    )


@pytest.mark.parametrize("winding, lift, shared", [(6, 0, False), (6, 1, True), (2, 0, True)])
def test_fibers_on_a_merged_co_successor_cycle(winding, lift, shared):
    # the running example's two live tape indices mod P = 7, 0 and 5 (F =
    # sigma/P = 6), put on one co-successor cycle of length 2, 5 at the
    # given lift: it lifts to g = gcd(winding, 6) co-snakes, and 5 + x*P
    # lies on that of (x - lift)*P mod g.  The cycles are walked on offsets
    # t - 1: tape index 0 is offset 6 one lap back, so the cycle is walked
    # from offset 6, and offset 4 (tape index 5) is at lift lift + 1.  The
    # successor's one cycle lifts to two snakes, x*P and 5 + x*P on those
    # of x and x - 1 mod 2.  With winding 6 and lift 0 the snakes keep
    # 5 + x*P and x*P apart; with lift 1 they share a fiber, and with
    # winding 2 each point meets itself two lifts on (lcm(2, 2) < 6): then
    # each of the 12 live residues fails
    s = orbit("00001010000")
    assert (len(s.unit), s.metrics.sigma) == (7, 42)
    (_, s_lift, s_cycles), (c_cycle, c_lift, _) = s.period_cycles
    assert (s_lift[4], s_lift[6], s_cycles) == (0, 0, [([4, 6], 2)])
    c_cycle, c_lift = list(c_cycle), list(c_lift)
    c_cycle[6], c_lift[6] = 0, 0
    c_cycle[4], c_lift[4] = 0, lift + 1
    path = [6, 4 + (lift + 1) * 7]
    vars(s)["period_cycles"] = s.period_cycles[0], (c_cycle, c_lift, [(path, winding)])
    live = [v + k for k in range(0, 42, 7) for v in (0, 5)]
    expected = [f"{FIBERS}: n=11 seed=00001010000 tape {t}" for t in live] if shared else []
    assert _law_results(s, FIBERS) == (12 - len(expected), expected)


def test_fibers_compare_the_lift_differences_mod_the_gcd():
    # the running example's two live offsets 4 and 6 (P = 7, F = sigma/P =
    # 6) on one successor cycle of winding 3, 6 at lift 1, and on one
    # co-successor cycle of winding 6, 4 at lift 2: the cycles lift to
    # gcd(3, 6) = 3 snakes and 6 co-snakes, lcm 6 = F.  4 + x*P lies on
    # snake x mod 3 and co-snake x - 2 mod 6, and 6 + x*P on snake x - 1
    # mod 3 and co-snake x mod 6, so 6 + x*P shares both with 4 + (x + 2)*P:
    # the lift differences, 0 - 2 and 1 - 0, agree mod gcd(3, 6) = 3, and
    # each of the 12 live residues fails
    s = orbit("00001010000")
    (s_cycle, s_lift, _), (c_cycle, c_lift, _) = s.period_cycles
    s_lift, c_cycle, c_lift = list(s_lift), list(c_cycle), list(c_lift)
    s_lift[6], c_cycle[6], c_lift[4], c_lift[6] = 1, 0, 2, 0
    succ, co_succ = (s_cycle, s_lift, [([4, 13], 3)]), (c_cycle, c_lift, [([6, 18], 6)])
    vars(s)["period_cycles"] = succ, co_succ
    live = [v + k for k in range(0, 42, 7) for v in (0, 5)]
    assert _law_results(s, FIBERS) == (
        0,
        [f"{FIBERS}: n=11 seed=00001010000 tape {t}" for t in live],
    )


def test_the_free_action_walks_s_up_to_beta_steps_each_way(monkeypatch):
    # with every row step read as 0 the law reports each a whose c-walk
    # ends on t0's tape index: on n = 5, seed 00100 (alpha 2, beta 3),
    # s^-3 c^2 and s^3 c^-2.  With beta read as 2 the walk stops a step
    # short of them, and the count is (2*2 + 1)^2 - 1
    monkeypatch.setattr(verify, "_ROW_STEP", dict.fromkeys(verify._ROW_STEP, 0))
    for beta, passed, exponents in ((3, 32, ["(-3,2)", "(3,-2)"]), (2, 24, [])):
        s = orbit("00100")
        vars(s)["snakes"] = s.snakes._replace(beta=beta)
        assert _law_results(s, FREE_ACTION) == (
            passed,
            [f"{FREE_ACTION}: n=5 seed=00100 exponents {e}" for e in exponents],
        )


def test_the_suite_formats_no_orbit_rows(monkeypatch):
    # the laws read the tape period and the seed; the rows as words are
    # for the report and the completeness check alone
    def raising(_orbit):
        raise AssertionError("Scroll.rows read")

    monkeypatch.setattr(Scroll, "rows", property(raising))
    rep = run_verification(2, 12, omega_max=3)
    assert not rep.violations and rep.passed


@pytest.mark.parametrize("seed", ["00001010000", "101010001010", "00100"])
def test_doubled_orbit_breaks_only_the_orbit_length_law(seed):
    # the orbit read with m doubled before anything reads it, as a period of
    # the tape twice the orbit's would give it: the closed form read off one
    # window still gives the true orbit length
    s = orbit(seed)
    vars(s)["m"] = 2 * s.m
    rep = VerificationReport()
    check_scroll(s, rep)
    check_tables(s, 3, rep)
    assert [v.split(":")[0] for v in rep.violations] == ["orbit length formula"]
    assert orbit_report(s, 1)["agreement"]["scrollPeriodMatchesOrbit"] is False


EXTENDED_LAWS = {
    "six-neighbor zeros",
    "unique successor candidates",
    "commutation",
    "parallelogram",
    "predecessor round trip",
    "beta_D = 2 alpha - 1",
    "2bE + 3aS + 4aL = n+1",
    "deg, codeg coprime",
    "T_tape = gcd(p, q)",
    "orbit length formula",
    "alpha from letters",
    "beta from letters",
    "lambda odd",
    "lambda | gcd(n, ColScale)",
    "lambda > 1 implies n >= 4 lambda",
    "torsor simple transitivity",
    "tape shift iff T_tape divides",
    "slither matches simulation",
    "co-slither matches simulation",
    "successor advance linear",
    "free affine action",
    "fibers are residues mod sigma",
}


@pytest.mark.parametrize("n", [2, 3, 11])
def test_a_law_that_never_ran_has_no_key(n):
    # for n <= 3 no live entry has a live entry within one row span, so the
    # near-row law makes no check there and must not appear with count 0
    passed = run_verification(n, n).passed
    near_row = {"near-row co-snake distinctness"} if n > 3 else set()
    assert set(passed) == EXTENDED_LAWS | near_row
    assert all(count > 0 for count in passed.values())


@pytest.mark.parametrize("t", [5, 7])
def test_a_non_unique_step_letter_is_recorded_not_raised(t):
    # successor letter "2" (two live candidates) at live index t of the
    # period table (P = 7, the live indices 5 and 7): it stands for
    # t + 7k in each of the 11 laps of the 77 residues, each recorded
    s = orbit("00001010000")
    letters = letters_of(s, "successor_letters")
    assert len(letters) == 7
    inject_letters(s, "successor_letters", letters[: t - 1] + "2" + letters[t:])
    rep = VerificationReport()
    check_scroll(s, rep)
    assert rep.violations == [
        "unique successor candidates: n=11 seed=00001010000: "
        f"successor of live index {t + 7 * k}: 2 live candidates, expected 1"
        for k in range(11)
    ]
    live = sum(vector(s))
    assert rep.passed["six-neighbor zeros"] == live
    assert rep.passed["unique successor candidates"] == live - 11
    # the other live index of the period steps onto t: no entry is checked
    for law in ("commutation", "parallelogram", "predecessor round trip"):
        assert law not in rep.passed, law
    # the laws on the step maps need every step to be a map: all skipped
    assert "alpha from letters" not in rep.passed
    assert "free affine action" not in rep.passed
    # so do the table laws: one violation for the orbit, no table law
    passed = dict(rep.passed)
    check_tables(s, 2, rep)
    assert rep.violations[11:] == [
        "table laws skipped: n=11 seed=00001010000: steps are not maps"
    ]
    assert rep.passed == passed
    assert not rep.same_side_degree_failures and not rep.product_form_failures


PARTITION_LAWS = {
    "alpha from letters",
    "beta from letters",
    "torsor simple transitivity",
    "slither matches simulation",
    "co-slither matches simulation",
    "successor advance linear",
    "near-row co-snake distinctness",
    "free affine action",
    "fibers are residues mod sigma",
}
TABLE_LAWS = {"crossed degree divisibility", *OMEGA_LAWS}


@pytest.mark.parametrize(
    "seed, residue",
    [("00001010000", 4), ("00000010000", 11), ("00000010000", 18)],
    ids=["4", "11", "18"],
)
def test_a_step_onto_a_dead_residue_skips_the_partition_laws(seed, residue):
    # successor letter E -> D at a live residue of the period table (P = 7
    # for the running example, 21 for the second seed, with E at 11 and 18):
    # the step lands on its other candidate, a dead residue, so the
    # successor is no map of the live entries; it is recorded, and nothing
    # raises
    s = orbit(seed)
    letters = letters_of(s, "successor_letters")
    assert letters[residue] == "E"
    inject_letters(s, "successor_letters", letters[:residue] + "D" + letters[residue + 1 :])
    rep = VerificationReport()
    check_scroll(s, rep)
    check_tables(s, 3, rep)
    assert rep.violations[-1] == f"table laws skipped: n=11 seed={seed}: steps are not maps"
    assert not (PARTITION_LAWS | TABLE_LAWS) & set(rep.passed)
    assert "snakes" not in vars(s)


def _residue_results(s: Scroll) -> tuple[dict[str, int], list[str]]:
    """check_scroll's passes and violations of the per-residue laws alone."""
    rep = VerificationReport()
    check_scroll(s, rep)
    passed = {law: count for law, count in rep.passed.items() if law in RESIDUE_LAWS}
    return passed, [v for v in rep.violations if v.split(":")[0] in RESIDUE_LAWS]


def test_residue_laws_on_one_period_match_every_residue():
    # check_scroll runs the per-residue laws on the least period P and
    # multiplies; the oracle checks all m*n residues, on every orbit n <= 16
    orbits = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            assert _residue_results(s) == residue_laws(s), s.rows[0]
            orbits += 1
    assert orbits == 159


@pytest.mark.parametrize(
    "seed, table, letters",
    [
        ("00001010000", "successor_letters", "....2.D"),
        ("00001010000", "successor_letters", "....E.2"),
        ("00001010000", "co_successor_letters", "....S.2"),
        ("00001010000", "successor_letters", "....D.D"),
        ("00000010000", "successor_letters", "......D....D.E.D..E.D"),
        ("00000010000", "successor_letters", "......D....E.E.D..D.D"),
        ("00001010000", "predecessor_letters", "....D.0"),
        ("00001010000", "co_predecessor_letters", "....S.0"),
        # two failures per period: reported lap by lap, in tape order
        ("00001010000", "successor_letters", "....2.2"),
        ("00001010000", "co_predecessor_letters", "....0.0"),
    ],
)
def test_residue_laws_on_one_period_match_every_residue_when_corrupted(seed, table, letters):
    # the injections of the tests above into the period tables, each
    # standing for one per lap of the m*n residues
    s = orbit(seed)
    assert sum(map(str.__ne__, letters_of(s, table), letters)) in (1, 2)
    inject_letters(s, table, letters)
    assert _residue_results(s) == residue_laws(s)


def test_nonlinear_advance_is_held_to_the_oracle():
    # metrics claiming deg = 2, p = 21 where the true ones are 3 and 14: the
    # steps stay maps, and the advance after one block of the slither word
    # misses 21 from 12 live residues mod sigma, after two blocks from none;
    # the per-residue results must equal the oracle's, round by round
    s = orbit("00001010000")
    vars(s)["metrics"] = s.metrics._replace(deg=2, p=21)
    assert s.steps_are_maps
    passed, violations = _residue_results(s)
    assert (passed, violations) == residue_laws(s)
    law = "successor advance linear"
    failed = [v for v in violations if v.startswith(law)]
    assert len(failed) == 12
    assert all(" r=1 from " in v for v in failed)


@pytest.mark.parametrize("p, failing_at_r1", [(26, 5), (16, 0)])
def test_an_advance_off_whole_laps_reads_the_lifts(p, failing_at_r1):
    # metrics claiming deg = 2, so a block is 3 steps, no whole number of
    # laps of the successor cycle mod T (length 2, through 0 and 5 at lifts
    # 0 and 1): the advance after one block from 0 is 26 and from 5 is 16,
    # read off the lift of the end point.  A claimed p equal to one of them
    # holds from that residue alone for r = 1, and from none for r = 2 (42
    # from each); each failure at v < 7 stands for v + 7k, k < 6
    s = orbit("00001010000")
    vars(s)["metrics"] = s.metrics._replace(deg=2, p=p)
    passed, violations = _residue_results(s)
    assert (passed, violations) == residue_laws(s)
    failed = [v for v in violations if v.startswith(LINEAR)]
    assert failed[:6] == [
        f"{LINEAR}: n=11 seed=00001010000 r=1 from {failing_at_r1 + k}" for k in range(0, 42, 7)
    ]
    assert len(failed) == 18 and passed[LINEAR] == 6


def _law_results(s: Scroll, law: str) -> tuple[int, list[str]]:
    """check_scroll's passes and violations of one law."""
    rep = VerificationReport()
    check_scroll(s, rep)
    return rep.passed.get(law, 0), [v for v in rep.violations if v.startswith(law)]


def test_tape_shift_law_matches_the_slice_oracle():
    # the law asks whether the vector's least period divides each shift;
    # the oracle compares the tape read from each shift, on every orbit
    # n <= 16
    orbits = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            assert _law_results(s, "tape shift iff T_tape divides") == tape_shift_law(s), s.rows[0]
            orbits += 1
    assert orbits == 159


def test_a_wrong_tape_period_fails_the_tape_shift_law():
    # T_tape claimed as 14 on a tape of period 7: the shifts by 7, 21 and 35
    # fix the tape but are no multiple of 14.  Claimed as 2 or 1, the
    # shifts up to the bound 3*T_tape are its multiples, and none fixes the
    # tape; the first shift past the bound, 7 or 4, is no check
    law = "tape shift iff T_tape divides"
    cases = (14, 39, (7, 21, 35)), (2, 3, (2, 4, 6)), (1, 0, (1, 2, 3))
    for tape_period, passed, shifts in cases:
        s = orbit("00001010000")
        vars(s)["metrics"] = s.metrics._replace(T_tape=tape_period)
        assert _law_results(s, law) == tape_shift_law(s) == (
            passed,
            [f"{law}: n=11 seed=00001010000 shift {ell}" for ell in shifts],
        )


def test_a_wrong_simulated_period_fails_the_tape_shift_law():
    # the simulated side of the law: the tape's least period read as the
    # running example's unit repeated 11 times, P = 77 where T_tape = 7.  No
    # shift in [1, 21] is a multiple of 77, so the shifts by 7, 14 and 21
    # fail, and the other 18 pass
    law = "tape shift iff T_tape divides"
    clean = _law_results(orbit("00001010000"), law)
    s = orbit("00001010000")
    vars(s).update(unit=s.unit * 11)
    assert _law_results(s, law) == (
        clean[0] - 3,
        [f"{law}: n=11 seed=00001010000 shift {ell}" for ell in (7, 14, 21)],
    )
    assert clean == (21, [])


def test_a_law_that_raises_ends_the_tally_after_the_laws_before_it(monkeypatch):
    # check_scroll tallies each law as it is yielded: where the sum vector
    # raises, mid-orbit, the laws before the sum-vector laws are tallied as
    # on a clean orbit and no law after them is
    clean = VerificationReport()
    check_scroll(orbit("00001010000"), clean)
    laws = list(clean.passed)
    cut = laws.index("lambda odd")

    def broken(s):
        raise RuntimeError("sum vector broken")

    monkeypatch.setattr(verify, "sum_vector", broken)
    rep = VerificationReport()
    with pytest.raises(RuntimeError, match="^sum vector broken$"):
        check_scroll(orbit("00001010000"), rep)
    assert rep.passed == {law: clean.passed[law] for law in laws[:cut]}
    assert not rep.violations
    assert (cut, len(laws)) == (12, 23)


def test_free_action_and_near_row_match_their_oracles():
    # check_scroll walks c from each s^a(start) toward the start only and
    # steps only to the live entries within a row span; the oracles walk
    # every (a, b) and test every entry, on every orbit n <= 16
    orbits = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            assert _law_results(s, FREE_ACTION) == free_action_law(s), s.rows[0]
            assert _law_results(s, NEAR_ROW) == near_row_law(s), s.rows[0]
            orbits += 1
    assert orbits == 159


CROSSED = {
    "successor_letters": "co_successor_letters",
    "co_successor_letters": "successor_letters",
    "predecessor_letters": "co_predecessor_letters",
    "co_predecessor_letters": "predecessor_letters",
}


@pytest.mark.parametrize("table", sorted(CROSSED))
def test_free_action_on_crossed_letters_matches_the_oracle(table):
    # one letter of the period table replaced by the other map's letter at
    # the same live residue.  The crossed step still lands on a live
    # residue, so the steps stay maps of the live entries and every walk
    # reads step letters; steps_are_maps and the snake counts are read
    # before the injection, so the extended laws run, and the injection
    # rebuilds the injected table's advances from its letters.  One map
    # can then undo the other, s^a c^b fixing the start for some (a, b) !=
    # (0, 0): on every orbit n <= 10, 88 injections, 23 of them with a
    # fixed point
    cases = fixed = 0
    for n in range(2, 11):
        for true in all_orbits(n):
            letters, donor = letters_of(true, table), letters_of(true, CROSSED[table])
            for r in (r for r, x in enumerate(letters) if x != "."):
                s = Scroll(true.unit, n)
                assert s.steps_are_maps
                s.snakes
                inject_letters(s, table, letters[:r] + donor[r] + letters[r + 1 :])
                result = _law_results(s, FREE_ACTION)
                assert result == free_action_law(s), (true.rows[0], r)
                cases, fixed = cases + 1, fixed + bool(result[1])
    assert (cases, fixed) == (88, 23)


def _plane_walk(s: Scroll, back: str, forth: str, k: int) -> list[tuple[int, int]]:
    """(tape index, row) of the first live index after e = -k..k steps of
    the map with letter tables back and forth; a step moves by the shape of
    the letter at (t - 1) mod its table's length, negated for e < 0."""
    t0 = vector(s).index(1) + 1
    walks = []
    for letters, sign in ((back, -1), (forth, 1)):
        t, row, steps = t0, 0, []
        for _ in range(k):
            rows, cols = _STEP_SHAPE[letters[(t - 1) % len(letters)]]
            t, row = t + sign * (rows * s.n + cols), row + sign * rows
            steps.append((t, row))
        walks.append(steps)
    return walks[0][::-1] + [(t0, 0)] + walks[1]


def test_free_action_needs_the_row_not_only_the_tape():
    # s^a(t0) and c^-b(t0), |a| <= beta and |b| <= alpha, can share a tape
    # index on different rows: a law read on the tape alone would call
    # s^a c^b a fixed point there.  Every orbit with n <= 16 has such
    # pairs, 318 in all, the first at n = 2, seed 00; the law carries each
    # point's row, and passes on every one of them
    false_fixed, orbits = 0, []
    for n in range(2, 17):
        for s in all_orbits(n):
            alpha, beta = s.snakes
            (forth, co_forth), (back, co_back) = s.steps.letters, s.inverse_steps.letters
            s_rows = dict(_plane_walk(s, back, forth, beta))
            c_walk = _plane_walk(s, co_back, co_forth, alpha)
            shared = sum(t in s_rows and s_rows[t] != row for t, row in c_walk)
            if shared:
                false_fixed += shared
                orbits.append((n, s.rows[0]))
                assert _law_results(s, FREE_ACTION)[1] == [], s.rows[0]
    assert false_fixed == 318 and len(orbits) == 159
    assert orbits[0] == (2, "00")


def test_near_row_on_merged_co_snakes_matches_the_oracle():
    # every co-successor cycle mod P merged into one of winding 1, which
    # lifts to one co-snake mod sigma (one first id and one lift): each live
    # entry within a row span of a live residue shares its co-snake.  The
    # oracle is given the same fault injected into the labels mod sigma,
    # every co-snake relabelled as the first one; every orbit with
    # 4 <= n <= 16 has such an entry
    orbits = merged = 0
    for n in range(4, 17):
        for s in all_orbits(n):
            snake, cosnake = s.snake_labels
            cycle, lift, cycles = s.period_cycles[1]
            one = [None if i is None else 0 for i in cycle]
            one_cycle = [([v for path, _ in cycles for v in path], 1)]
            vars(s)["period_cycles"] = s.period_cycles[0], (one, lift, one_cycle)
            vars(s)["cycle_lifts"] = s.cycle_lifts[0], [(0, 1)]
            first = live_residues(s, s.metrics.sigma)[0]
            vars(s)["snake_labels"] = snake, [None if x is None else first for x in cosnake]
            result = _law_results(s, NEAR_ROW)
            assert result == near_row_law(s, s.snake_labels), s.rows[0]
            orbits, merged = orbits + 1, merged + bool(result[1])
    assert merged == orbits == 157


def test_sigma_laws_on_one_tape_period_match_their_oracles(monkeypatch):
    # check_scroll reads the snakes and co-snakes of the live residues mod
    # T off the cycles mod T and multiplies; the oracles step both maps
    # round their cycles mod sigma for the labels and step the successor
    # from every live residue mod sigma, on every orbit n <= 16.  The suite
    # walks the maps' cycles mod T alone
    calls = _recording_walks(monkeypatch)
    run_verification(2, 16)
    scrolls = [o for n in range(2, 17) for o in all_orbits(n)]
    assert len(scrolls) == 159
    assert calls == [len(s.unit) for s in scrolls]
    for s in scrolls:
        rep = VerificationReport()
        check_scroll(s, rep)
        for law, oracle in (
            (FIBERS, fibers_law),
            (LINEAR, advance_linear_law),
            (NEAR_ROW, near_row_law),
        ):
            failed = [v for v in rep.violations if v.startswith(law)]
            assert (rep.passed.get(law, 0), failed) == oracle(s), (law, s.rows[0])


def test_a_wrong_winding_breaks_the_advance_linearity():
    # the first successor cycle mod P = 7 (offset 3 alone, tape index 4,
    # winding 1) given winding 2: K steps from 4 now advance 2*K*P, not
    # K*p = K*P, for each of the rounds K = 1..3; the failure at 4 stands
    # for 4, 11, 18
    s = orbit("000100")
    met = s.metrics
    assert (len(s.unit), met.sigma, met.deg, met.p) == (7, 21, 3, 7)
    cycle, lift, cycles = s.period_cycles[0]
    assert (cycle[3], cycles) == (0, [([3], 1), ([6], 1)])
    s.snakes  # the counts read the true windings
    vars(s)["period_cycles"] = (cycle, lift, [([3], 2), ([6], 1)]), s.period_cycles[1]
    assert _law_results(s, LINEAR) == (
        9,
        [f"{LINEAR}: n=6 seed=000100 r={r} from {t}" for r in (1, 2, 3) for t in (4, 11, 18)],
    )
    assert advance_linear_law(s) == (18, [])


@pytest.mark.parametrize(
    "table, tape", [("predecessor_letters", 5), ("co_predecessor_letters", 63)]
)
def test_a_non_unique_inverse_letter_fails_the_round_trip(table, tape):
    # inverse letter "0" (no live candidate) at live index 7 of the period
    # table (P = 7): tape is the one entry of the 77 residues whose step
    # reaches 7, and each entry congruent to it mod 7, one per lap, fails
    # its round trip; nothing raises
    s = orbit("00001010000")
    letters = letters_of(s, table)
    inject_letters(s, table, letters[:6] + "0" + letters[7:])
    rep = VerificationReport()
    check_scroll(s, rep)
    assert rep.violations == [
        f"predecessor round trip: n=11 seed=00001010000 at tape {(tape - 1) % 7 + 1 + 7 * k}"
        for k in range(11)
    ]
    assert rep.passed["predecessor round trip"] == sum(vector(s)) - 11
    assert "free affine action" not in rep.passed


def _longer_co_successor_at_4(letters, advances):
    # the co-successor advance at offset 4 one lap (P = 7) longer, its
    # letter kept: c still lands on the same residue, and the two orders of
    # one s and one c step from offsets 4 and 6 part by P
    co = list(advances[1])
    co[4] += 7
    return letters, (advances[0], co)


def _other_co_successor_letter_at_6(letters, advances):
    # the co-successor letter at offset 6 read as L, its advance kept: the
    # letters of c at 4 and 6 differ, while every letter of s agrees
    return (letters[0], letters[1][:6] + "L"), advances


@pytest.mark.parametrize(
    "law, inject",
    [
        ("commutation", _longer_co_successor_at_4),
        ("parallelogram", _other_co_successor_letter_at_6),
    ],
)
def test_a_step_fault_fails_the_commutation_or_parallelogram_law(law, inject):
    # the running example's forward steps, successor letters ....E.D and
    # co-successor ....S.S, with one fault: the law fails at both live
    # tape indices 5 and 7 of the period, once per lap
    s = orbit("00001010000")
    assert s.steps.letters == ("....E.D", "....S.S")
    vars(s)["steps"] = StepTable(*inject(*s.steps))
    rep = VerificationReport()
    check_scroll(s, rep)
    assert [v for v in rep.violations if v.startswith(f"{law}: ")] == [
        f"{law}: n=11 seed=00001010000 at tape {t + k}" for k in range(0, 77, 7) for t in (5, 7)
    ]
    assert law not in rep.passed


def _identity_co_successor(s):
    # each live residue mod P a cycle of its own, of length 1 and winding
    # 0: it lifts to orbits of length 1 mod M, shorter than every arc
    live = s.unit_live
    identity = [None] * len(s.unit)
    for i, r in enumerate(live):
        identity[r] = i
    zero = [None if i is None else 0 for i in identity]
    vars(s)["period_cycles"] = s.period_cycles[0], (identity, zero, [([r], 0) for r in live])


def _one_more_live_residue(s):
    # a dead residue listed as live: the live residues no longer number
    # eta/F, and the count check fails first
    vars(s)["unit_live"] = sorted([*s.unit_live, s.unit.index(0)])


@pytest.mark.parametrize("breaking", [_identity_co_successor, _one_more_live_residue])
def test_a_broken_table_torsor_is_a_violation(breaking):
    # the counts, the swallow orders and the check that the steps are maps
    # are built from the true scroll; only the table torsor reads the broken
    # co-successor cycles or live residues (the identity cycles keep each
    # live residue's cycle and lift, so the swallows' ids are the true ones)
    s = orbit("00001010000")
    s.windings, s.swallow_orders, s.steps_are_maps
    breaking(s)
    rep = VerificationReport()
    check_tables(s, 1, rep)
    assert rep.violations == [
        "table torsor simple transitivity: n=11 seed=00001010000 omega=1"
    ]
    assert "table torsor simple transitivity" not in rep.passed
    assert rep.passed["ouroboros counts match formula"] == 1


@pytest.mark.parametrize(
    "row, col, crowded",
    [
        # between two live entries of its row
        (3, 8, ["(3,7)", "(3,8)", "(3,9)"]),
        # live neighbours above, right and below-left: directions -n, 1, n-1
        (3, 6, ["(2,6)", "(3,6)", "(3,7)", "(4,5)"]),
        # live neighbours above-right, left and below: 1-n, -1, n
        (3, 10, ["(2,11)", "(3,9)", "(3,10)", "(4,10)"]),
    ],
)
def test_a_crowded_live_entry_fails_the_six_neighbor_law(row, col, crowded):
    # an extra 1 at (row, col) (columns from 1), past the first length-n
    # window, so the metrics read off that window are unchanged: it and its
    # live neighbours are reported, and nothing raises.  The corrupted vector
    # is the orbit's period, so the least period the laws run on is m*n
    met = orbit("00001010000").metrics
    bits = bytearray(vector(orbit("00001010000")))
    r = row * 11 + col - 1
    assert bits[r] == 0
    bits[r] = 1
    s = Scroll(bytes(bits), 11)
    assert vector(s) == bits and len(s.unit) == 77
    assert s.metrics == met
    rep = VerificationReport()
    check_scroll(s, rep)
    law = "six-neighbor zeros"
    assert [v for v in rep.violations if v.startswith(law)] == [
        f"{law}: n=11 seed=00001010000 at {at}" for at in crowded
    ]
    assert rep.passed[law] == sum(bits) - len(crowded)


def test_a_live_entry_added_to_a_unit_is_held_to_the_six_neighbor_oracle():
    # each dead entry of the unit of every orbit with n <= 9 made live, once
    # the metrics are read off the true unit: units shorter and longer than
    # a row, crowded entries at the unit's ends among them.  Each of the 141
    # crowds a live entry, and the law's failures are the oracle's, which
    # checks each of the m*n residues
    cases = crowded = 0
    for n in range(2, 10):
        for clean in all_orbits(n):
            for r in range(len(clean.unit)):
                if clean.unit[r]:
                    continue
                s = Scroll(clean.unit, n)
                s.metrics
                unit = bytearray(s.unit)
                unit[r] = 1
                vars(s)["unit"] = bytes(unit)
                bits, size = vector(s), s.m * n
                want = [
                    f" at ({(t - 1) // n},{(t - 1) % n + 1})"
                    for t in range(1, size + 1)
                    if bits[t - 1]
                    and any(bits[(t - 1 + d) % size] for d in (-n, 1 - n, -1, 1, n - 1, n))
                ]
                law, _, failed = next(verify._scroll_laws(s, True))
                assert (law, list(failed)) == ("six-neighbor zeros", want), (n, s.unit)
                cases, crowded = cases + 1, crowded + bool(want)
    assert cases == crowded == 141


def test_a_raising_swallow_fails_the_swallow_law(monkeypatch):
    def raising(_s, _which, _size):
        raise AssertionError("not a uniform shift")

    monkeypatch.setattr(verify, "swallow_shift", raising)
    rep = VerificationReport()
    check_tables(orbit("00001010000"), 1, rep)
    assert rep.violations == [
        "swallow cycle structure: n=11 seed=00001010000 omega=1: not a uniform shift"
    ]
    # the failure is recorded under the key its passes are tallied under;
    # the laws after the swallows are skipped for that omega
    assert "swallow cycle structure" not in rep.passed
    assert set(rep.passed) == {"crossed degree divisibility", "ouroboros counts match formula"}


def test_a_walk_meeting_a_snake_twice_fails_the_swallow_law():
    # every offset of the slither walk read as its first: the walk meets one
    # co-snake six times, so the swallow orders raise, and each omega
    # records that as its swallow violation and checks nothing after
    s = orbit("00001010000")
    offsets, letters = s.slither_walk
    vars(s)["slither_walk"] = [offsets[0]] * len(offsets), letters
    rep = VerificationReport()
    check_tables(s, 2, rep)
    assert rep.violations == [
        f"swallow cycle structure: n=11 seed=00001010000 omega={omega}: "
        "step map does not traverse all labels once"
        for omega in (1, 2)
    ]
    assert rep.passed == {"crossed degree divisibility": 1, "ouroboros counts match formula": 2}


def test_disagreeing_color_conditions_fail_the_color_law(monkeypatch):
    def raising(_s, _omega, _size, _alpha, _beta, _shifts):
        raise AssertionError("color-preserving conditions disagree: [True, False]")

    monkeypatch.setattr(verify, "color_preserving", raising)
    rep = VerificationReport()
    check_tables(orbit("00001010000"), 2, rep)
    law = "color-preserving conditions agree"
    assert rep.violations == [
        f"{law}: n=11 seed=00001010000 omega={omega}: "
        "color-preserving conditions disagree: [True, False]"
        for omega in (1, 2)
    ]
    assert law not in rep.passed
    assert rep.passed["table torsor simple transitivity"] == 2


def test_wrong_predicted_counts_fail_the_counting_law(monkeypatch):
    monkeypatch.setattr(verify, "predicted_counts", lambda _s, _omega: (0, 0))
    rep = VerificationReport()
    check_tables(orbit("00001010000"), 2, rep)
    law = "ouroboros counts match formula"
    assert rep.violations == [f"{law}: n=11 seed=00001010000 omega={omega}" for omega in (1, 2)]
    # a wrong count skips nothing: every later law still tallies per omega
    assert law not in rep.passed
    assert rep.passed == {
        "crossed degree divisibility": 1,
        "swallow cycle structure": 2,
        "group order equals live count": 2,
        "color-preserving conditions agree": 2,
        "table slither power identity": 2,
        "table torsor simple transitivity": 2,
    }


def test_a_wrong_simulated_winding_fails_the_counting_law():
    # the simulated side of the counts: the successor's one cycle mod P = 7
    # read as winding 4, not 2, once the snakes, their ids and the swallow
    # orders are built.  A table of 11*omega laps lifts it to
    # gcd(4, 11*omega) ouroboroi, which differs from the closed form's
    # gcd(2, 11*omega) only where 4 divides omega: at omega = 4 the counts,
    # the swallows, the group order and the table words see bar_alpha = 4
    s = orbit("00001010000")
    s.snakes, s.cycle_lifts, s.swallow_orders
    _windings(s, 0, [4])
    rep = VerificationReport()
    check_tables(s, 4, rep)
    context = "n=11 seed=00001010000 omega=4"
    assert rep.violations == [
        f"ouroboros counts match formula: {context}",
        f"swallow cycle structure: {context}",
        f"group order equals live count: {context}: group order 44 != live count 88",
        f"table slither power identity: {context}",
    ]
    failed = {v.split(":")[0] for v in rep.violations}
    assert rep.passed == {
        "crossed degree divisibility": 1,
        **{law: 3 if law in failed else 4 for law in OMEGA_LAWS},
    }


def test_a_group_of_the_wrong_order_fails_the_group_order_law(monkeypatch):
    # invariant factors (1, 21) on every table: order 21, where the running
    # example's tables have eta = 22 and 44 live residues
    monkeypatch.setattr(verify, "group_factors", lambda _s, _eta, _alpha, _beta: (1, 21))
    rep = VerificationReport()
    check_tables(orbit("00001010000"), 2, rep)
    law = "group order equals live count"
    assert rep.violations == [
        f"{law}: n=11 seed=00001010000 omega={omega}: group order 21 != live count {eta}"
        for omega, eta in ((1, 22), (2, 44))
    ]
    # factors of the wrong order give no product-form evidence; the later
    # laws still run
    assert law not in rep.passed
    assert not rep.product_form_failures
    for later in (
        "color-preserving conditions agree",
        "table slither power identity",
        "table torsor simple transitivity",
    ):
        assert rep.passed[later] == 2, later


def test_a_wrong_live_count_fails_the_group_order_law():
    # the scroll's live count read as 23, not 22: at omega = 1 the group
    # presentation with eta = 23 has order gcd(2*23, 6*11, 23*11) = 1, not
    # 23; bar_beta = 2 still splits 23 into the 2 x 11 points the torsor
    # walks, so only the group law fails
    s = orbit("00001010000")
    vars(s)["live_count"] = 23
    rep = VerificationReport()
    check_tables(s, 1, rep)
    law = "group order equals live count"
    assert rep.violations == [
        f"{law}: n=11 seed=00001010000 omega=1: group order 1 != live count 23"
    ]
    assert not rep.product_form_failures
    assert rep.passed == {key: 1 for key in TABLE_LAWS if key != law}


def test_a_wrong_sigma_fails_the_color_law():
    # sigma read as 84, not 42, once the snakes and swallow lifts are built:
    # P = 7 still divides it, and only the scale condition reads it.  At
    # omega = 6 the table of 462 residues is colour-preserving by every
    # other condition, and 462 mod 84 != 0, so `color_preserving` raises;
    # at omega < 6 every condition is false
    s = orbit("00001010000")
    s.snakes, s.swallow_orders
    vars(s)["metrics"] = s.metrics._replace(sigma=84)
    rep = VerificationReport()
    check_tables(s, 6, rep)
    law = "color-preserving conditions agree"
    assert rep.violations == [
        f"{law}: n=11 seed=00001010000 omega=6: color-preserving conditions disagree: "
        "{'counts': True, 'swallows': True, 'bijection': True, 'scale': False, 'frequency': True}"
    ]
    assert rep.passed[law] == 5
    assert rep.passed["table torsor simple transitivity"] == 6


def test_a_wrong_simulated_winding_fails_the_color_law():
    # the simulated side of the colour conditions: the successor's one
    # cycle mod P = 7 read as winding 6, not 2, once the snakes, their ids
    # and the swallow orders are built.  A table of 11*omega laps lifts it
    # to gcd(6, 11*omega) ouroboroi, which differs from gcd(2, 11*omega)
    # only where 3 divides omega.  At omega = 6 the table of 462 residues
    # is colour-preserving by its swallows, its scale and its frequency,
    # but its lifted bar_alpha = 6 is not the scroll's alpha = 2, so the
    # counts and the bijection condition disagree with them
    s = orbit("00001010000")
    s.snakes, s.cycle_lifts, s.swallow_orders
    _windings(s, 0, [6])
    rep = VerificationReport()
    check_tables(s, 6, rep)
    law = "color-preserving conditions agree"
    assert [v for v in rep.violations if v.startswith(law)] == [
        f"{law}: n=11 seed=00001010000 omega=6: color-preserving conditions disagree: "
        "{'counts': False, 'swallows': True, 'bijection': False, 'scale': True, 'frequency': True}"
    ]
    # at omega = 3 the counts fail too, but every condition reads false
    assert {v.split(": ")[0] for v in rep.violations if "omega=3" in v} == {
        "ouroboros counts match formula",
        "swallow cycle structure",
        "group order equals live count",
        "table slither power identity",
    }
    assert rep.passed[law] == 5
    assert rep.passed["table torsor simple transitivity"] == 6


def test_a_uniform_swallow_of_the_wrong_cycle_type_fails_the_swallow_law():
    # the six co-snakes read as one cycle of six lifts met in order 0..5 by
    # the slither walk: each co-successor cycle mod P = 7 read as six lifts
    # from id 0, and the walk as offsets 4 + 7y, y < 6, on the cycle of the
    # least live residue 4, whose lift is 0.  The co-swallow of a table of
    # 77*omega residues is still a uniform shift, by omega mod 6, but at
    # omega = 1 its shift 1 has gcd(1, 6) = 1 cycles where bar_beta_1 = 2;
    # at omega = 2, shift 2 has the 2 that bar_beta_2 is
    s = orbit("00001010000")
    assert s.unit_live[0] == 4 and len(s.unit) == 7
    vars(s)["cycle_lifts"] = s.cycle_lifts[0], [(0, 6)] * 2
    vars(s)["slither_walk"] = [4 + 7 * y for y in range(6)], s.slither_walk[1]
    assert [swallow_shift(s, 1, 77 * omega) for omega in (1, 2)] == [1, 2]
    rep = VerificationReport()
    check_tables(s, 2, rep)
    law = "swallow cycle structure"
    assert rep.violations == [f"{law}: n=11 seed=00001010000 omega=1"]
    assert rep.passed[law] == 1
    assert all(rep.passed[key] == 2 for key in OMEGA_LAWS if key != law)


@pytest.mark.parametrize("word", ["slither", "coslither"])
def test_a_wrong_table_word_fails_the_power_identity(monkeypatch, word):
    # either word alone breaks the identity: "D" to any power is no slither
    # (it has E) and no co-slither (it has no S or L); `table_words` cuts
    # both words at once, so one of the two is replaced
    which = ("slither", "coslither").index(word)
    words = verify.table_words

    def one_wrong(s, alpha, beta):
        cut = list(words(s, alpha, beta))
        cut[which] = "D"
        return tuple(cut)

    monkeypatch.setattr(verify, "table_words", one_wrong)
    rep = VerificationReport()
    check_tables(orbit("00001010000"), 2, rep)
    law = "table slither power identity"
    assert rep.violations == [f"{law}: n=11 seed=00001010000 omega={omega}" for omega in (1, 2)]
    assert law not in rep.passed
    assert rep.passed["table torsor simple transitivity"] == 2
    assert rep.passed["ouroboros counts match formula"] == 2


def _metrics(s, **changes):
    vars(s)["metrics"] = s.metrics._replace(**changes)


def _lam(monkeypatch, lam):
    sums = verify.sum_vector
    monkeypatch.setattr(verify, "sum_vector", lambda s: SumVector(sums(s).sums, lam))


def _windings(s, which, windings):
    # the windings of the successor (which = 0) or co-successor (1) mod P,
    # read by the snake counts before anything else reads them
    vars(s)["windings"] = tuple(windings if i == which else w for i, w in enumerate(s.windings))


def _walk(s, name, letters):
    vars(s)[name] = getattr(s, name)[0], letters
    return f" simulated {letters}"


# one fault per per-scroll law of check_scroll on the running example
# (slither EDEDED, co-slither SS, deg 3, codeg 2, p 14, q 21, T 7, lambda 1,
# ColScale 9, 2 live residues mod T), each injected through the scroll's
# metrics or cached values or the sum vector; a fault may break other laws
# too.  A slither injected keeps ColScale, beta_D + 2 beta_E, at 9.  The
# faults of the laws that compare the words with simulated values are on
# the simulated side: for the T_tape law the tape's least period read as
# all m*n = 77 symbols, for the orbit length law the simulated m read as
# 14, not 7, before anything reads it, for alpha (beta) from letters the
# successor winding 2 read as 3 (the co-successor windings 3, 3 as 6, 6),
# so the snakes count 3 where the co-slither has 2 letters (co-snakes 12
# where the slither has 6).  Each returns what its law's context has
# after the seed
PER_SCROLL_FAULTS = {
    "beta_D = 2 alpha - 1": lambda s, mp: _metrics(s, slither="DDEDDED"),
    "2bE + 3aS + 4aL = n+1": lambda s, mp: _metrics(s, coslither="L"),
    "deg, codeg coprime": lambda s, mp: _metrics(s, codeg=3),
    "T_tape = gcd(p, q)": lambda s, mp: vars(s).update(unit=s.unit * 11),
    "orbit length formula": lambda s, mp: vars(s).update(m=14),
    "alpha from letters": lambda s, mp: _windings(s, 0, [3]),
    "beta from letters": lambda s, mp: _windings(s, 1, [6, 6]),
    "lambda odd": lambda s, mp: _lam(mp, 2),
    "lambda | gcd(n, ColScale)": lambda s, mp: _lam(mp, 3),
    "lambda > 1 implies n >= 4 lambda": lambda s, mp: _lam(mp, 3),
    "torsor simple transitivity": lambda s, mp: _identity_co_successor(s),
    "slither matches simulation": lambda s, mp: _walk(s, "slither_walk", "EEEEEE"),
    "co-slither matches simulation": lambda s, mp: _walk(s, "coslither_walk", "LL"),
}


@pytest.mark.parametrize("law", sorted(PER_SCROLL_FAULTS))
def test_a_per_scroll_fault_is_recorded_and_not_passed(monkeypatch, law):
    # every law is evaluated on every orbit: a faulted law records its
    # violation with its context and loses the pass it has on the clean scroll
    clean = VerificationReport()
    check_scroll(orbit("00001010000"), clean)
    assert not clean.violations and clean.passed[law] == 1
    s = orbit("00001010000")
    detail = PER_SCROLL_FAULTS[law](s, monkeypatch) or ""
    rep = VerificationReport()
    check_scroll(s, rep)
    assert f"{law}: n=11 seed=00001010000{detail}" in rep.violations
    assert rep.passed.get(law, 0) == clean.passed[law] - 1


def test_a_period_not_dividing_sigma_skips_the_snake_laws_by_name():
    # the T_tape fault: the unit read as the running example's repeated 11
    # times, so P = 77 does not divide sigma = 42 and no covering
    # Z/sigma -> Z/P reads the snakes off the cycles mod P.  Every law on
    # snakes or walks of the steps is skipped with one violation that names
    # the reason, in check_scroll and check_tables alike, and none of them
    # passes
    clean = VerificationReport()
    check_scroll(orbit("00001010000"), clean)
    reason = "n=11 seed=00001010000: tape period 77 does not divide sigma 42"
    s = orbit("00001010000")
    vars(s).update(unit=s.unit * 11)
    rep = VerificationReport()
    check_scroll(s, rep)
    assert rep.violations[:2] == [
        f"snake laws skipped: {reason}",
        "T_tape = gcd(p, q): n=11 seed=00001010000",
    ]
    assert all(v.startswith("tape shift iff T_tape divides: ") for v in rep.violations[2:])
    gated = {
        "alpha from letters",
        "beta from letters",
        "torsor simple transitivity",
        "slither matches simulation",
        "co-slither matches simulation",
        LINEAR,
        NEAR_ROW,
        FREE_ACTION,
        FIBERS,
    }
    assert set(clean.passed) - set(rep.passed) == gated | {"T_tape = gcd(p, q)"}
    assert set(rep.passed) <= set(clean.passed)
    tables = VerificationReport()
    check_tables(s, 2, tables)
    assert tables.violations == [f"table laws skipped: {reason}"]
    assert tables.passed == {}


# the report's law results, and the methods that change a dict or list in place
_RESULTS = {"passed", "violations"}
_MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault"
}


def _result_writers(tree: ast.Module, module: str) -> set[str]:
    """The qualified names of the scopes of tree that assign, augment,
    delete or change in place a `.passed` or `.violations` attribute,
    directly or through a name bound to one, which nested functions see."""
    writers = set()

    def is_result(node, aliases) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in _RESULTS
        return isinstance(node, ast.Name) and node.id in aliases

    def scan(node, name, aliases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{name}.{child.name}", set(aliases))
                continue
            written = []
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    pairs = [(target, child.value)]
                    if isinstance(target, ast.Tuple) and isinstance(child.value, ast.Tuple):
                        pairs = zip(target.elts, child.value.elts)
                    for left, right in pairs:
                        if not isinstance(left, ast.Name):
                            written.append(left)
                        elif isinstance(right, ast.Attribute) and right.attr in _RESULTS:
                            aliases.add(left.id)
            elif isinstance(child, ast.AugAssign):
                written.append(child.target)
            elif isinstance(child, ast.AnnAssign) and not isinstance(child.target, ast.Name):
                written.append(child.target)
            elif isinstance(child, ast.Delete):
                written += child.targets
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in _MUTATORS:
                    written.append(child.func.value)
            if any(is_result(target, aliases) for target in written):
                writers.add(name)
            scan(child, name, aliases)

    scan(tree, module, set())
    return writers


def test_the_result_scan_finds_every_kind_of_write():
    source = """
def assign(rep): rep.passed = {}
def item(rep): rep.passed["law"] = 1
def annotated(rep): rep.passed: dict = {}
def augment(rep): rep.violations += ["law: context"]
def append(rep): rep.violations.append("law: context")
def delete(rep): del rep.passed["law"]
def alias(rep):
    passed, kept = rep.passed, 0
    def inner(): passed.update(law=1)
    inner()
def read(rep): return sorted(rep.passed), rep.violations[0], len(rep.passed)
"""
    assert _result_writers(ast.parse(source), "m") == {
        "m.assign", "m.item", "m.annotated", "m.augment", "m.append", "m.delete", "m.alias.inner"
    }


def test_only_the_tally_writes_law_results():
    # every law result, of check_scroll, check_tables and the completeness
    # check, reaches the report through one method
    writers = set()
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        writers |= _result_writers(ast.parse(path.read_text()), path.stem)
    assert writers == {"verify.VerificationReport.tally"}


def _callers(tree: ast.Module, module: str, name: str) -> set[str]:
    """The qualified names of the scopes of tree that call the function
    name."""
    callers = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
                callers.add(scope)
            scan(child, scope)

    scan(tree, module)
    return callers


def test_only_the_tally_names_the_orbit():
    # every violation's orbit is named as the tally writes it, and every
    # evidence record's as the record reads
    callers = set()
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), path.stem, "_orbit_name")
    assert callers == {
        "verify.VerificationReport.tally",
        "verify.SameSideDegreeFailure.__str__",
        "verify.ProductFormFailure.__str__",
    }
