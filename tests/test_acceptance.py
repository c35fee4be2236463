"""Acceptance gate: one test per acceptance criterion.

Each test is self-contained and checks frozen expected values or runs
the exhaustive suites at full size, with the stated runtime budgets.
"""

import time
from math import gcd

from snakescroll.classify import (
    enumerate_ticker_tapes,
    feasible_quadruples,
    gf_count,
)
from snakescroll.cycles import all_orbits, orbit
from snakescroll.cyclic import cyclically_equal
from snakescroll.report import orbit_report
from snakescroll.slither import metrics_from_row
from snakescroll.sums import col_scale, construct_period_lambda, sum_vector
from snakescroll.tables import group_factors, nontrivial, product_pair
from snakescroll.verify import run_verification

from oracles import permutation_group_invariants, table_counts


def test_criterion_1_running_example_n11():
    start = time.perf_counter()
    s = orbit("00001010000")
    met = s.metrics
    assert s.m == 7
    assert cyclically_equal(met.slither, "EDEDED")
    assert cyclically_equal(met.coslither, "SS")
    assert (s.snakes.alpha, s.snakes.beta) == (2, 6)
    assert (met.deg, met.codeg) == (3, 2)
    assert (met.p, met.q) == (14, 21)
    assert met.sigma == 42
    assert met.T_tape == 7
    assert col_scale(s) == 9
    assert sum_vector(s).lam == 1

    assert table_counts(s, 1) == (1, 2)
    assert s.fundamental_degrees == (2, 3)

    report = orbit_report(s, 1)
    assert report["coSwallowCycles"] == [3, 3]
    assert report["invariantFactors"] == [22]
    assert time.perf_counter() - start < 1.0


def test_criterion_2_motivating_example_n12():
    start = time.perf_counter()
    s = orbit("101010001010")
    assert s.m == 15

    vector = "".join(s.rows)
    assert len(vector) == 180
    assert vector == vector[:45] * 4
    assert s.metrics.T_tape == 45

    sv = sum_vector(s)
    assert sv.sums == (3, 4, 5) * 4
    assert sv.lam == 3
    assert time.perf_counter() - start < 1.0


def _least_rotation(word: str) -> str:
    return min(word[k:] + word[:k] for k in range(len(word)))


def test_criterion_3_classification_n13():
    start = time.perf_counter()
    quads = feasible_quadruples(13)
    assert gf_count(13) == 7
    assert len(quads) == 7

    recs = enumerate_ticker_tapes(13)
    assert len(recs) == 17
    got = sorted(
        (
            (rec.quadruple.beta_e, rec.quadruple.alpha_s,
             rec.quadruple.alpha_l, rec.quadruple.beta_d),
            _least_rotation(rec.slither),
            _least_rotation(rec.coslither),
        )
        for rec in recs
    )
    table = [
        (5, 0, 1, 1, "EEEEED", "L"),
        (3, 0, 2, 3, "EEEDDD", "LL"),
        (3, 0, 2, 3, "EEDEDD", "LL"),
        (3, 0, 2, 3, "EEDDED", "LL"),
        (3, 0, 2, 3, "EDEDED", "LL"),
        (1, 0, 3, 5, "EDDDDD", "LLL"),
        (4, 2, 0, 3, "EEEEDDD", "SS"),
        (4, 2, 0, 3, "EEEDEDD", "SS"),
        (4, 2, 0, 3, "EEEDDED", "SS"),
        (4, 2, 0, 3, "EEDEEDD", "SS"),
        (4, 2, 0, 3, "EEDEDED", "SS"),
        (2, 2, 1, 5, "EEDDDDD", "SSL"),
        (2, 2, 1, 5, "EDEDDDD", "SSL"),
        (2, 2, 1, 5, "EDDEDDD", "SSL"),
        (0, 2, 2, 7, "DDDDDDD", "SSLL"),
        (0, 2, 2, 7, "DDDDDDD", "SLSL"),
        (1, 4, 0, 7, "EDDDDDDD", "SSSS"),
    ]
    expected = sorted(
        ((be, as_, al, bd), _least_rotation(ws), _least_rotation(wc))
        for be, as_, al, bd, ws, wc in table
    )
    assert got == expected
    assert time.perf_counter() - start < 1.0


def test_criterion_4_theorem_suite_n2_to_16():
    start = time.perf_counter()
    rep = run_verification(2, 16, omega_max=0, extended=True, completeness=False)
    assert not rep.violations, rep.violations[:10]
    # every law's check count: 22969 live entries and 159 orbits
    orbits, live = 159, 22969
    per_orbit = (
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
        "slither matches simulation",
        "co-slither matches simulation",
    )
    per_live = (
        "six-neighbor zeros",
        "unique successor candidates",
        "commutation",
        "parallelogram",
        "predecessor round trip",
    )
    assert rep.passed == {
        **dict.fromkeys(per_live, live),
        **dict.fromkeys(per_orbit, orbits),
        "tape shift iff T_tape divides": 19248,
        "successor advance linear": 4052,
        "free affine action": 15370,
        "fibers are residues mod sigma": 3080,
        "near-row co-snake distinctness": 10269,
    }
    assert sum(rep.passed.values()) == 168931
    assert time.perf_counter() - start < 300.0


def test_criterion_5_ouroboros_counting_n13_omega12():
    start = time.perf_counter()
    rep = run_verification(2, 13, omega_max=12, extended=False, completeness=False)
    assert not rep.violations, rep.violations[:10]
    for law in (
        "ouroboros counts match formula",
        "swallow cycle structure",
        "group order equals live count",
        "color-preserving conditions agree",
        "table torsor simple transitivity",
    ):
        assert rep.passed.get(law, 0) > 0, law
    assert time.perf_counter() - start < 300.0


def test_criterion_5_invariant_factors_direct_product_form():
    """Every table group is Z_g x Z_(eta/g) with g = gcd(bar_alpha, bar_beta).

    The group G generated by the reduced successor s and co-successor c is
    abelian and acts simply transitively on the eta live entries, so
    |G| = eta, ord s = eta/bar_alpha and ord c = eta/bar_beta.  Being
    generated by s and c, G has exponent lcm(ord s, ord c) =
    eta/gcd(bar_alpha, bar_beta); a group of rank at most two with that
    order and exponent is Z_g x Z_(eta/g).  This closed form, computed from
    the ouroboros counts alone, is checked against group_factors on every
    table with n <= 13 and omega <= 12.

    The paper's form Z_bar_alpha x Z_(eta/bar_alpha) has the same order, so
    it is the table group exactly when gcd(bar_alpha, eta/bar_alpha) = g.
    The tables where it is not are kept as evidence: the n=5 seed 00100
    table at omega=4 (tape 001 repeated, so s and c are both translations
    of one cycle) has the cyclic group Z_20, not Z_2 x Z_10, by the
    brute-force oracle too.
    """
    disagreements = []
    product_form_failures = set()
    total = 0
    for n in range(2, 14):
        for s in all_orbits(n):
            for omega in range(1, 13):
                total += 1
                eta, (a, b) = omega * s.live_count, table_counts(s, omega)
                g = gcd(a, b)
                forced = tuple(d for d in (g, eta // g) if d > 1)
                factors = group_factors(s, eta, a, b)
                ctx = f"n={n} seed={s.rows[0]} omega={omega}"
                if nontrivial(factors) != forced:
                    disagreements.append(
                        f"{ctx}: factors {nontrivial(factors)}, forced {forced}"
                    )
                matches = factors == product_pair(a, eta // a)
                if matches != (gcd(a, eta // a) == g):
                    disagreements.append(
                        f"{ctx}: the Z_a x Z_(eta/a) product form matches is "
                        f"{matches}, gcd condition disagrees"
                    )
                if not matches:
                    product_form_failures.add((n, s.rows[0], omega))
    assert total == 816
    assert not disagreements, (
        f"{len(disagreements)} disagreements with Z_gcd(a,b) x "
        f"Z_(eta/gcd(a,b)) over {total} tables, e.g. {disagreements[0]}"
    )
    assert (5, "00100", 4) in product_form_failures
    assert permutation_group_invariants(orbit("00100"), 4) == (20,)


def test_criterion_6_round_trip_and_completeness():
    for n in range(2, 23):
        for rec in enumerate_ticker_tapes(n):
            met = metrics_from_row(rec.first_row, n)
            assert cyclically_equal(met.slither, rec.slither)
            assert cyclically_equal(met.coslither, rec.coslither)
    # a simulated tape in its least rotation: that of its least period,
    # repeated (the least rotation of a power is the power of the least one)
    for n in range(2, 23):
        simulated = set()
        for o in all_orbits(n):
            tape = "".join(o.rows)
            period = tape[: (tape + tape).find(tape, 1)]
            simulated.add(_least_rotation(period) * (len(tape) // len(period)))
        classified = {rec.tape for rec in enumerate_ticker_tapes(n)}
        assert simulated == classified, f"n={n}"


def test_criterion_7_sum_vector_construction_grid():
    start = time.perf_counter()
    for lam in (3, 5, 7, 9):
        for k in (4, 5, 6, 7):
            s = construct_period_lambda(lam, k)
            assert s.n == lam * k
            assert sum_vector(s).lam == lam
    s = construct_period_lambda(7, 4)
    assert sum_vector(s).sums == (9, 8, 8, 8, 8, 8, 7) * 4
    assert time.perf_counter() - start < 60.0


def test_criterion_8_generating_function_coherence():
    for n in range(2, 41):
        assert gf_count(n) == len(feasible_quadruples(n)), f"n={n}"
