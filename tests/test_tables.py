"""Finite orbit tables: ouroboros counts, swallows, group structure."""

from math import gcd, lcm

import pytest

from snakescroll.cycles import all_orbits, orbit
from snakescroll.render import ansi_table, svg_table
from snakescroll.report import orbit_report
from snakescroll.tables import (
    color_preserving,
    group_factors,
    predicted_counts,
    nontrivial,
    omega_period,
    product_pair,
    swallow_shift,
    table_words,
)

from oracles import (
    co_successor,
    least_residues,
    live_residues,
    permutation_group_invariants,
    reduced_maps,
    successor,
    table_counts,
    vector,
    walked_counts,
    walked_labels,
)

SEED11 = "00001010000"


def test_table_shape():
    s = orbit(SEED11)
    report = orbit_report(s, 2)
    assert report["tableRows"] == 14
    assert report["tableRows"] * s.n == 2 * s.size == 154
    assert report["eta"] == 44  # 22 live entries per fundamental vector
    for omega in (0, -1):
        for build in (orbit_report, ansi_table, svg_table):
            with pytest.raises(ValueError, match="^omega must be a positive integer$"):
                build(s, omega)


def test_running_example_fundamental_counts():
    s = orbit(SEED11)
    assert table_counts(s, 1) == (1, 2)
    assert s.fundamental_degrees == (2, 3)


def test_fundamental_degrees_match_simulated_counts():
    # oracle: the degrees are the snake counts over the simulated omega = 1
    # ouroboros counts, on every orbit with n <= 16
    orbits = [o for n in range(2, 17) for o in all_orbits(n)]
    assert len(orbits) == 159
    for s in orbits:
        snakes = s.snakes
        alpha, beta = table_counts(s, 1)
        assert snakes.alpha % alpha == 0 and snakes.beta % beta == 0
        degrees = s.fundamental_degrees
        assert degrees == (snakes.alpha // alpha, snakes.beta // beta)
        assert gcd(*degrees) == 1


def test_running_example_predicted_counts():
    s = orbit(SEED11)
    for omega in range(1, 13):
        assert table_counts(s, omega) == predicted_counts(s, omega)
    assert predicted_counts(s, 2) == (2, 2)
    assert predicted_counts(s, 6) == (2, 6)


def test_running_example_co_swallow():
    s = orbit(SEED11)
    assert swallow_shift(s, 1, s.size) == 4
    report = orbit_report(s, 1)
    assert report["coSwallowCycles"] == [3, 3]
    assert report["swallowCycles"] == [2]  # alpha=2 snakes folded into one ouroboros


def test_swallow_rejects_a_non_uniform_shift():
    s = orbit(SEED11)
    # ids 0, 1, 2 in order, swallowed onto 0, 2, 1: the walk meets the one
    # snake of a cycle of one lift (first id 0), then lifts 0 and 1 of a
    # cycle of two (first id 1), which swap less size/P = 11 laps, an odd
    # number; (0, 2, 1) is no rotation of the order.  Live residue 4 is on
    # the first cycle and 6 on the second, both at lift 0, and the walk is
    # offsets 4, 6 and 6 + 7
    assert s.size == 77 and len(s.unit) == 7 and s.unit_live == [4, 6]
    cycle, lift = [None] * 7, [None] * 7
    cycle[4], cycle[6], lift[4], lift[6] = 0, 1, 0, 0
    # both maps' cycles, lifts and walks are replaced: the orders are built
    # together
    vars(s)["period_cycles"] = ((cycle, lift, None),) * 2
    vars(s)["cycle_lifts"] = ([(0, 1), (1, 2)],) * 2
    vars(s)["coslither_walk"] = vars(s)["slither_walk"] = [4, 6, 13], ""
    assert s.swallow_orders == ((0, 1, 2), (0, 1, 2))
    with pytest.raises(AssertionError, match="not a uniform shift"):
        swallow_shift(s, 0, s.size)


def test_report_table_fields_match_oracles():
    # the fields the orbit report derives from the scalar cores, on every
    # table with n <= 9 and omega <= 3: each swallow folds deg p (codeg p)
    # snakes (co-snakes) into each of its bar_alpha (bar_beta) cycles, the
    # invariant factors are the torsor oracle's, and a table preserves
    # colours exactly at the multiples of deg p_1 * codeg p_1
    tables = 0
    for n in range(2, 10):
        for s in all_orbits(n):
            deg_p1, codeg_p1 = s.fundamental_degrees
            for omega in (1, 2, 3):
                tables += 1
                report = orbit_report(s, omega)
                assert report["swallowCycles"] == [report["degP"]] * report["barAlpha"]
                assert report["coSwallowCycles"] == [report["codegP"]] * report["barBeta"]
                group = permutation_group_invariants(s, omega)
                assert report["invariantFactors"] == (list(group) or [1])
                assert report["colorPreserving"] == (omega % (deg_p1 * codeg_p1) == 0)
    assert tables == 54


def test_report_writes_a_trivial_group_as_one_factor(monkeypatch):
    # no table has a trivial group, as eta is at least the live count, at
    # least 2 on every orbit, so a fault stands in for one: it is Z_1,
    # written [1], not an empty list
    monkeypatch.setattr("snakescroll.report.group_factors", lambda *args: (1, 1))
    report = orbit_report(orbit("00100"), 1)
    assert report["invariantFactors"] == [1]
    assert not report["agreement"]["groupOrderMatchesEta"]


def test_running_example_group():
    s = orbit(SEED11)
    factors = group_factors(s, s.live_count, *table_counts(s, 1))
    assert nontrivial(factors) == (22,)
    assert factors[0] * factors[1] == 22


def test_product_invariants():
    assert nontrivial(product_pair(2, 11)) == (22,)
    assert nontrivial(product_pair(2, 4)) == (2, 4)
    assert nontrivial(product_pair(1, 5)) == (5,)
    assert nontrivial((1, 1)) == ()
    assert nontrivial((1, 2)) == (2,)  # a Z_2 factor


def _all_tables():
    """Every table with n <= 13 and omega <= 12 (816 tables), one at a time,
    as (scroll, omega, size): size, the table's residues, is omega times
    the length of the vector."""
    scrolls = [o for n in range(2, 14) for o in all_orbits(n)]
    assert 12 * len(scrolls) == 816
    for s in scrolls:
        for omega in range(1, 13):
            yield s, omega, omega * len(vector(s))


def test_presentation_matches_permutation_group():
    # the torsor walk over the two reduced maps as an oracle
    for s, omega, _ in _all_tables():
        factors = group_factors(s, omega * s.live_count, *table_counts(s, omega))
        assert nontrivial(factors) == permutation_group_invariants(s, omega)


def _live(s, size):
    """Live tape indices in 1..size, ascending."""
    bits = vector(s)
    return [t for t in range(1, size + 1) if bits[(t - 1) % len(bits)]]


def _reference_swallow(live, size, labels, count, order_step, table_map):
    """Swallow by head stepping: each label's head, its greatest live index
    in the table, mapped by the reduced table map table_map; labels are
    indexed by residue mod their length."""

    def label_of(k):
        return labels[k % len(labels)]

    order = []
    k = live[0]
    for _ in range(count):
        order.append(label_of(k))
        k = order_step(k)
    head = {label_of(k): k for k in live}  # live is ascending: last one wins
    image = {label: label_of(table_map[head[label] % size]) for label in order}
    return tuple(order), image


def test_swallows_match_head_stepping_reference():
    for s, _, size in _all_tables():
        snake, cosnake = walked_labels(s, s.metrics.sigma)
        succ, co_succ = reduced_maps(s, size)
        live = _live(s, size)
        sw = _reference_swallow(
            live, size, snake, s.snakes.alpha, lambda t: co_successor(s, t), succ
        )
        cs = _reference_swallow(
            live, size, cosnake, s.snakes.beta, lambda t: successor(s, t), co_succ
        )
        for which, want in enumerate((sw, cs)):
            # each snake id named by its snake's least residue, as walked
            name = least_residues(s.snake_labels[which])
            order = [name[x] for x in s.swallow_orders[which]]
            shift = swallow_shift(s, which, size)
            image = dict(zip(order, order[shift:] + order[:shift]))
            assert (tuple(order), image) == want


def _cycle_lengths_lcm(live, step) -> int:
    seen, order = set(), 1
    for start in live:
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = step(x)
            length += 1
        order = lcm(order, length)
    return order


def test_permutation_group_oracle_matches_exponent():
    # a rank-2 abelian group of order eta and exponent e is Z_(eta/e) x Z_e,
    # and the exponent of <s, c> is lcm(ord s, ord c); the cycle lengths
    # come from the scroll's own steps, wrapped into the table here
    for s, omega, size in _all_tables():
        live = _live(s, size)
        e = lcm(
            _cycle_lengths_lcm(live, lambda t: (successor(s, t) - 1) % size + 1),
            _cycle_lengths_lcm(live, lambda t: (co_successor(s, t) - 1) % size + 1),
        )
        expected = tuple(d for d in (len(live) // e, e) if d > 1)
        assert permutation_group_invariants(s, omega) == expected


def _assert_steps_reduced(s, live, modulus):
    """The oracle's live residues mod modulus are those of live, and its maps
    reduced mod modulus are the successor and co-successor on live, reduced,
    and None on every other residue."""
    residues = sorted(t % modulus for t in live)
    assert live_residues(s, modulus) == residues
    for array, step in zip(reduced_maps(s, modulus), (successor, co_successor)):
        assert len(array) == modulus
        assert [r for r, u in enumerate(array) if u is not None] == residues
        for t in live:
            assert array[t % modulus] == step(s, t) % modulus


def test_reduced_maps_are_the_steps_reduced():
    for n in range(2, 17):
        for s in all_orbits(n):
            bits = vector(s)
            window = [t for t in range(s.metrics.sigma) if bits[(t - 1) % len(bits)]]
            _assert_steps_reduced(s, window, s.metrics.sigma)
    for s, omega, size in _all_tables():
        live = _live(s, size)
        _assert_steps_reduced(s, live, size)
        assert omega * s.live_count == len(live)


def test_direct_product_forms_fail_on_some_tables():
    # Z_bar_alpha x Z_(eta/bar_alpha) is not always the table group
    s = orbit("0000")
    eta, (alpha, beta) = s.live_count, table_counts(s, 1)
    factors = group_factors(s, eta, alpha, beta)
    assert nontrivial(factors) == (8,)
    # product form Z_bar_beta x Z_(eta/bar_beta) says (2, 4)
    assert factors != product_pair(beta, eta // beta)
    s = orbit("000100")
    eta, (alpha, beta) = s.live_count, table_counts(s, 1)
    factors = group_factors(s, eta, alpha, beta)
    assert nontrivial(factors) == (12,)
    # product form Z_bar_alpha x Z_(eta/bar_alpha) says (2, 6)
    assert factors != product_pair(alpha, eta // alpha)


def test_table_words_power_up_to_scroll_words():
    s = orbit(SEED11)
    alpha, beta = table_counts(s, 1)
    slither, coslither = table_words(s, alpha, beta)
    assert (slither, coslither) == ("ED", "S")
    # their codeg p_1 = beta / bar_beta and deg p_1 = alpha / bar_alpha powers
    assert slither * (s.snakes.beta // beta) == s.metrics.slither
    assert coslither * (s.snakes.alpha // alpha) == s.metrics.coslither


def test_color_preserving_running_example():
    s = orbit(SEED11)
    for omega in range(1, 13):
        size = omega * s.size
        shifts = swallow_shift(s, 0, size), swallow_shift(s, 1, size)
        preserving = color_preserving(s, omega, size, *table_counts(s, omega), shifts)
        assert preserving == (omega % 6 == 0)


def _periodic_values(s, omega: int) -> tuple:
    """The cycle counts walked mod the table size, the swallow shifts and
    the five colour-preserving conditions of the omega-fold table of s,
    each condition in the test's own arithmetic."""
    size, snakes, (deg_p1, codeg_p1) = omega * s.size, s.snakes, s.fundamental_degrees
    alpha, beta = walked_counts(s, size)
    shifts = swallow_shift(s, 0, size), swallow_shift(s, 1, size)
    conditions = (
        (alpha, beta) == (snakes.alpha, snakes.beta),
        shifts == (0, 0),
        snakes.alpha == alpha and snakes.beta == beta,
        size % s.metrics.sigma == 0,
        omega % (deg_p1 * codeg_p1) == 0,
    )
    return (alpha, beta), shifts, conditions


def test_largest_omega_period():
    # the largest P_omega of the orbits with n <= 16; before the test that
    # walks every omega <= P_omega, so a larger P_omega fails here at once
    assert max(omega_period(s) for n in range(2, 17) for s in all_orbits(n)) == 45


def test_omega_period_repeats_the_walked_table_values():
    # oracle: on every orbit with n <= 11, the counts walked mod the table
    # size, the swallow shifts and the five colour conditions agree at
    # omega and omega + P_omega, for every omega <= P_omega
    orbits = [o for n in range(2, 12) for o in all_orbits(n)]
    assert len(orbits) == 33
    for s in orbits:
        period = omega_period(s)
        for omega in range(1, period + 1):
            later = _periodic_values(s, omega + period)
            assert _periodic_values(s, omega) == later, (s.seed, omega)


def test_crossed_degree_divisibility():
    for n in range(2, 11):
        for s in all_orbits(n):
            met = s.metrics
            deg_p1, codeg_p1 = s.fundamental_degrees
            assert met.codeg % deg_p1 == 0
            assert met.deg % codeg_p1 == 0


def test_same_side_divisibility_fails_on_running_example():
    # deg(p_1) = 2 does not divide deg = 3: only the crossed law holds
    s = orbit(SEED11)
    deg_p1, _ = s.fundamental_degrees
    assert s.metrics.deg % deg_p1 != 0
