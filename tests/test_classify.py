"""Feasible pairs, first-row construction, tape enumeration."""

import re
from math import gcd

import pytest

from snakescroll import classify, slither
from snakescroll.classify import (
    FeasibleQuadruple,
    checked_period,
    construct_first_row,
    enumerate_ticker_tapes,
    feasible_quadruples,
    gf_count,
    tape_period,
)
from snakescroll.cycles import all_orbits, enumerate_independent_sets, orbit
from snakescroll.cyclic import cyclically_equal, least_period
from snakescroll.slither import metrics_from_row, metrics_from_words, words_from_row

from oracles import vector


def test_quadruple_constraints():
    # the two count identities and what follows from them, which the library
    # relies on unchecked: sigma equals its co-slither form, and ColScale's
    # two letter forms equal sigma mod n
    for n in range(2, 301):
        for quad in feasible_quadruples(n):
            e, s, l, d = quad.beta_e, quad.alpha_s, quad.alpha_l, quad.beta_d
            assert d == 2 * (s + l) - 1
            assert 2 * e + 3 * s + 4 * l == n + 1
            assert s + l > 0
            sigma = 2 * e + (n + 1) * d
            assert sigma == (2 * n - 1) * s + (2 * n - 2) * l
            assert d + 2 * e == n - s - 2 * l == sigma % n


def test_gf_count_small_values():
    # solutions of 2a+3b+4c = n+1 with (b,c) != (0,0), counted by hand
    assert [gf_count(n) for n in range(2, 14)] == [1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 5, 7]


def test_gf_count_equals_enumeration():
    for n in range(2, 41):
        assert gf_count(n) == len(feasible_quadruples(n))


def test_construct_running_example():
    row = construct_first_row("EDEDED", "SS", 11)
    assert cyclically_equal(
        "".join(orbit(row).rows),
        "".join(orbit("00001010000").rows),
    )


def test_construct_round_trip():
    for n in range(2, 15):
        for rec in enumerate_ticker_tapes(n):
            assert words_from_row(rec.first_row, n) == (rec.slither, rec.coslither)


def test_every_classified_first_row_is_independent_to_n20():
    # `_window` takes the first row as it is: the sweep recurrence that
    # `checked_period` holds at every offset makes it independent.  Each of
    # the 579 rows of C_2..C_20 is checked here, pair by cyclic pair
    rows = 0
    for n in range(2, 21):
        for rec in enumerate_ticker_tapes(n):
            row = rec.first_row
            assert len(row) == n and set(row) <= {"0", "1"}, row
            assert not any(row[j] == row[(j + 1) % n] == "1" for j in range(n)), row
            rows += 1
    assert rows == 579


def test_a_row_reading_back_other_words_fails_the_round_trip(monkeypatch):
    first, other = enumerate_ticker_tapes(11)[:2]
    window = classify._window

    def swapped(period, n):
        row = window(period, n)
        return other.first_row if row == first.first_row else row

    monkeypatch.setattr(classify, "_window", swapped)
    want = f"round trip failed for ({first.slither}, {first.coslither}) at n=11"
    with pytest.raises(AssertionError, match=re.escape(want)):
        enumerate_ticker_tapes(11)


def test_two_classes_on_one_tape_fail_the_distinctness_guard(monkeypatch):
    # DDDEE/LL and DDEDE/LL both have tape period 20 at n = 11: give the
    # second the canonical period of the first
    recs = enumerate_ticker_tapes(11)
    a, b = (
        next(rec for rec in recs if (rec.slither, rec.coslither) == words)
        for words in (("DDDEE", "LL"), ("DDEDE", "LL"))
    )
    least = classify.canonical_binary

    def colliding(period):
        word = least(period)
        return a.tape[:20] if word == b.tape[:20] else word

    monkeypatch.setattr(classify, "canonical_binary", colliding)
    with pytest.raises(AssertionError, match="n=11: 10 necklace pairs but 9 distinct tapes"):
        enumerate_ticker_tapes(11)


def test_enumeration_builds_no_metrics(monkeypatch):
    # the tape period of each class comes from sigma, fixed per quadruple,
    # and the exponents of its two words; no ScrollMetrics is built, and
    # the round trip compares words
    calls = {"metrics_from_words": 0, "metrics_from_row": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(slither, "metrics_from_row")
    counted(slither, "metrics_from_words")
    counted(classify, "metrics_from_words")
    records = sum(len(enumerate_ticker_tapes(n)) for n in range(2, 21))
    assert records == 579
    assert calls == {"metrics_from_words": 0, "metrics_from_row": 0}


def test_each_class_period_is_the_metrics_tape_period():
    classes = 0
    for n in range(2, 21):
        for rec in enumerate_ticker_tapes(n):
            assert len(rec.period) == metrics_from_words(rec.slither, rec.coslither, n).T_tape
            classes += 1
    assert classes == 579


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
        want = "".join(map(str, vector(orbit(row))[:period]))
        assert tape_period(met.slither, met.coslither, period, n) == want, row
        assert recurrence_period(row, period) == want, row
        rows += 1
    assert rows == 609  # sum of F(n - 1) for n = 2..14: column 1 live, 2 and n dead


def test_every_single_bit_corruption_breaks_the_recurrence():
    for row, met in live_first_rows(14):
        n, size = len(row), met.T_tape
        word = tape_period(met.slither, met.coslither, size, n)
        period = int(word[::-1], 2)  # bit i is tape index i
        assert checked_period(period, size, n) == word
        for i in range(size):
            with pytest.raises(AssertionError, match="recurrence"):
                checked_period(period ^ (1 << i), size, n)


def test_a_wrong_tape_period_is_rejected():
    for row, met in live_first_rows(14):
        for wrong in (met.T_tape - 1, 2 * met.T_tape):
            with pytest.raises(AssertionError):
                tape_period(met.slither, met.coslither, wrong, len(row))


def test_construction_inverts_the_slither_calculus():
    for row, met in live_first_rows(14):
        assert construct_first_row(met.slither, met.coslither, len(row)) == row


def test_construct_rejects_mismatched_words():
    with pytest.raises(ValueError):
        construct_first_row("EDEDED", "SSS", 11)
    with pytest.raises(ValueError):
        construct_first_row("EEE", "S", 7)  # beta_D = 0, not 2 alpha - 1 = 1


def test_construct_rejects_a_bad_letter_in_either_word():
    # the counts of each pair ignore its bad letter and pass, so only the
    # letter check keeps the letter from the advance table
    for ws, wc in (("DEEX", "S"), ("DDDEE", "SX")):
        with pytest.raises(ValueError, match="must be over D/E"):
            construct_first_row(ws, wc, 6)


def test_construct_count_messages_name_the_counts():
    with pytest.raises(ValueError, match="^slither has 3 D; a co-slither of length 3 needs 5$"):
        construct_first_row("EDEDED", "SSS", 11)
    counts = r"^letter counts give 2E \+ 3S \+ 4L = 7, not n \+ 1 = 8$"
    with pytest.raises(ValueError, match=counts):
        construct_first_row("DEE", "S", 7)


def _least_rotation(word: str) -> str:
    return min(word[k:] + word[:k] for k in range(len(word)))


def test_n13_classification_table():
    recs = enumerate_ticker_tapes(13)
    assert len(feasible_quadruples(13)) == 7
    assert len(recs) == 17
    got = sorted(
        (
            (q.beta_e, q.alpha_s, q.alpha_l, q.beta_d),
            _least_rotation(rec.slither),
            _least_rotation(rec.coslither),
        )
        for rec in recs
        for q in [rec.quadruple]
    )
    expected = sorted(
        ((be, as_, al, bd), _least_rotation(ws), _least_rotation(wc))
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
        assert total == len(list(all_orbits(n))), f"n={n}"
