"""Column-sum vectors and the prescribed-period constructions."""

from math import gcd
from types import SimpleNamespace

import pytest

from snakescroll.classify import FeasibleQuadruple, feasible_quadruples
from snakescroll.cycles import all_orbits, orbit
from snakescroll.sums import (
    col_scale,
    construct_period_lambda,
    period_lambda_words,
    sum_vector,
)


def test_vector_period():
    # sum_vector reads only s.n, s.m and s.unit: build rows with given
    # column sums; the closed form holds for any period of the vector, so
    # the whole vector serves as the unit
    for sums, lam in [((3, 4, 5, 3, 4, 5), 3), ((7, 7, 7), 1), ((1, 2, 3), 3)]:
        rows = [[1 if i < v else 0 for v in sums] for i in range(max(sums))]
        vector = bytes(bit for row in rows for bit in row)
        sv = sum_vector(SimpleNamespace(n=len(sums), m=len(rows), unit=vector))
        assert (sv.sums, sv.lam) == (sums, lam)


def test_sums_are_the_column_sums_of_the_rows():
    for n in range(2, 21):
        for s in all_orbits(n):
            columns = [0] * n
            for row in s.rows:
                for j, ch in enumerate(row):
                    columns[j] += ch == "1"
            assert sum_vector(s).sums == tuple(columns), s.rows[0]


def test_running_example_sums():
    s = orbit("00001010000")
    assert col_scale(s) == 9
    sv = sum_vector(s)
    assert sv.lam == 1
    assert sv.sums == (2,) * 11


def test_motivating_example_sums():
    s = orbit("101010001010")
    assert s.m == 15
    sv = sum_vector(s)
    assert sv.lam == 3
    assert sv.sums == (3, 4, 5) * 4


def test_sum_period_laws_on_small_cycles():
    from math import gcd

    for n in range(2, 13):
        for s in all_orbits(n):
            lam = sum_vector(s).lam
            assert lam % 2 == 1
            assert gcd(n, col_scale(s)) % lam == 0
            assert lam == 1 or n >= 4 * lam


def test_period_lambda_words_counts():
    ws, wc = period_lambda_words(3, 4)
    assert (ws.count("D"), wc.count("S") + wc.count("L")) == (3, 2)
    assert ws.count("D") == 2 * len(wc) - 1
    ws, wc = period_lambda_words(5, 7)
    assert ws.count("D") == 11 and wc == "SSLLLL"
    with pytest.raises(ValueError):
        period_lambda_words(4, 4)
    with pytest.raises(ValueError):
        period_lambda_words(3, 3)


def test_construct_period_lambda_small_grid():
    for lam, k in [(3, 4), (3, 5), (5, 4), (1, 4), (1, 5)]:
        s = construct_period_lambda(lam, k)
        assert s.n == lam * k
        assert sum_vector(s).lam == lam


def test_lambda_one_seeds():
    # the quadruple the lambda = 1 seed picker takes, pinned by its seed
    seeds = [construct_period_lambda(1, k).seed for k in range(4, 8)]
    assert seeds == ["1000", "10010", "100000", "1000100"]


def test_every_n_has_a_coprime_col_scale_pair():
    # the lambda = 1 seed is built from the first feasible quadruple whose
    # ColScale, beta_D + 2 beta_E, is coprime to n, and one always exists:
    # (alpha_S, alpha_L) = (0, 1) has ColScale n - 2 for odd n, and (1, 0)
    # has n - 1 for even n
    for n in range(3, 201):
        if n % 2:
            witness, scale = FeasibleQuadruple((n - 3) // 2, 0, 1, 1), n - 2
        else:
            witness, scale = FeasibleQuadruple((n - 2) // 2, 1, 0, 1), n - 1
        assert witness in feasible_quadruples(n)
        assert witness.beta_d + 2 * witness.beta_e == scale
        assert gcd(n, scale) == 1


def test_construct_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_period_lambda(2, 5)
    with pytest.raises(ValueError):
        construct_period_lambda(3, 2)


def test_figure_sum_pattern_for_7_4():
    s = construct_period_lambda(7, 4)
    sv = sum_vector(s)
    assert sv.lam == 7
    assert sv.sums == (9, 8, 8, 8, 8, 8, 7) * 4
