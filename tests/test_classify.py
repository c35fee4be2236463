"""Feasible pairs, first-row construction, tape enumeration."""

from dataclasses import replace
from math import gcd

import pytest

from snakescroll.classify import (
    FeasibleQuadruple,
    canonical_tape,
    checked_period,
    construct_first_row,
    enumerate_ticker_tapes,
    feasible_quadruples,
    gf_count,
    tape_period,
)
from snakescroll.cycles import all_orbits, enumerate_independent_sets
from snakescroll.cyclic import canonical, cyclically_equal, least_period
from snakescroll.scroll import scroll_from_seed
from snakescroll.slither import metrics_from_row


def test_quadruple_constraints():
    for n in range(2, 30):
        for quad in feasible_quadruples(n):
            assert quad.beta_d == 2 * (quad.alpha_s + quad.alpha_l) - 1
            assert 2 * quad.beta_e + 3 * quad.alpha_s + 4 * quad.alpha_l == n + 1
            assert quad.alpha > 0


def test_gf_count_small_values():
    # solutions of 2a+3b+4c = n+1 with (b,c) != (0,0), counted by hand
    assert [gf_count(n) for n in range(2, 14)] == [1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 5, 7]


def test_gf_count_equals_enumeration():
    for n in range(2, 41):
        assert gf_count(n) == len(feasible_quadruples(n))


def test_construct_running_example():
    row = construct_first_row("EDEDED", "SS", 11)
    assert cyclically_equal(
        canonical_tape(scroll_from_seed(row)),
        canonical_tape(scroll_from_seed("00001010000")),
    )


def test_construct_round_trip():
    for n in range(2, 15):
        for rec in enumerate_ticker_tapes(n):
            met = metrics_from_row(rec.first_row, n)
            assert met.slither.word == rec.slither
            assert met.coslither.word == rec.coslither


def recurrence_period(row, period):
    """The first `period` tape symbols by the per-symbol sweep recurrence.

    Read as a tape, the sweep is X_{t+n} = NOR(X_{t+n-1}, X_t, X_{t+1});
    the n symbols after the period must repeat the row.
    """
    n = len(row)
    x = [int(b) for b in row]
    for s in range(n, period + n):
        x.append(1 - (x[s - 1] | x[s - n] | x[s - n + 1]))
    assert x[period:] == x[:n]
    return "".join(map(str, x[:period]))


def live_first_rows(n_max):
    """(row, metrics) for every independent set with column 1 live, n <= n_max."""
    for n in range(2, n_max + 1):
        for row in enumerate_independent_sets(n):
            if row[0] == "1":
                yield row, metrics_from_row(row, n)


def test_torsor_period_is_the_simulated_tape():
    rows = 0
    for row, met in live_first_rows(14):
        n, period = len(row), met.T_tape
        want = "".join(map(str, scroll_from_seed(row).vector[:period]))
        assert tape_period(met, n) == want, row
        assert recurrence_period(row, period) == want, row
        rows += 1
    assert rows == 609  # sum of F(n - 1) for n = 2..14: column 1 live, 2 and n dead


def test_every_single_bit_corruption_breaks_the_recurrence():
    for row, met in live_first_rows(14):
        n, size = len(row), met.T_tape
        word = tape_period(met, n)
        period = int(word[::-1], 2)  # bit i is tape index i
        assert checked_period(period, size, n) == word
        for i in range(size):
            with pytest.raises(AssertionError, match="recurrence"):
                checked_period(period ^ (1 << i), size, n)


def test_a_wrong_tape_period_is_rejected():
    for row, met in live_first_rows(14):
        for wrong in (met.T_tape - 1, 2 * met.T_tape):
            with pytest.raises(AssertionError):
                tape_period(replace(met, T_tape=wrong), len(row))


def test_construction_inverts_the_slither_calculus():
    for row, met in live_first_rows(14):
        assert construct_first_row(met.slither.word, met.coslither.word, len(row)) == row


def test_construct_rejects_mismatched_words():
    with pytest.raises(ValueError):
        construct_first_row("EDEDED", "SSS", 11)
    with pytest.raises(ValueError):
        construct_first_row("EEE", "S", 7)  # beta_D = 0, not 2 alpha - 1 = 1


def test_n13_classification_table():
    recs = enumerate_ticker_tapes(13)
    assert len(feasible_quadruples(13)) == 7
    assert len(recs) == 17
    got = sorted(
        (
            (q.beta_e, q.alpha_s, q.alpha_l, q.beta_d),
            canonical(rec.slither),
            canonical(rec.coslither),
        )
        for rec in recs
        for q in [rec.quadruple]
    )
    expected = sorted(
        ((be, as_, al, bd), canonical(ws), canonical(wc))
        for be, as_, al, bd, ws, wc in [
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
    )
    assert got == expected


def test_tapes_are_distinct():
    for n in range(2, 13):
        recs = enumerate_ticker_tapes(n)
        assert len({rec.tape for rec in recs}) == len(recs)


def test_quadruple_ordering_is_stable():
    quads = feasible_quadruples(13)
    assert quads[0] == FeasibleQuadruple(0, 2, 2, 7)
    assert quads == sorted(quads)


def test_tape_periods_sum_to_the_lucas_number():
    # The n symbols from each of the T offsets of a tape of period T are
    # distinct independent sets, and each of the L_n independent sets of
    # C_n is read from exactly one offset of one tape class.
    lucas = [2, 1]
    for n in range(2, 27):
        lucas.append(lucas[-1] + lucas[-2])
        total = sum(least_period(rec.tape) for rec in enumerate_ticker_tapes(n))
        assert total == lucas[n], f"n={n}"


def test_tape_classes_give_every_sweep_orbit():
    # A sweep moves the offset by n, so the T offsets of a tape of period T
    # fall into gcd(n, T) sweep orbits.
    for n in range(2, 23):
        total = sum(gcd(n, least_period(rec.tape)) for rec in enumerate_ticker_tapes(n))
        assert total == len(all_orbits(n)), f"n={n}"
