"""Step words and scale data extracted from single rows."""

import pytest

from snakescroll.cycles import enumerate_independent_sets, orbit
from snakescroll.slither import (
    analysis_window,
    coslither_from_row,
    metrics_from_row,
    slither_from_row,
    step_advance,
    zero_blocks,
)


def test_step_advances():
    n = 11
    assert step_advance("E", n) == 2
    assert step_advance("D", n) == 12
    assert step_advance("S", n) == 21
    assert step_advance("L", n) == 20


def test_analysis_window_identity_when_col1_live():
    assert analysis_window("10100001010") == "10100001010"


def test_analysis_window_crosses_into_next_row():
    # the window continues into sweep(row), not back into the same row
    assert analysis_window("00001010000") == "10100001010"


def test_analysis_window_rejects_zero_row():
    with pytest.raises(ValueError):
        analysis_window("0000")


def test_zero_blocks():
    blocks = zero_blocks("10100001010")
    assert blocks.inner_lengths == (1, 4, 1)
    assert blocks.trailing_length == 1


def test_running_example_words():
    row = "10100001010"
    assert slither_from_row(row).word == "EDEDED"
    assert coslither_from_row(row).word == "SS"


def test_words_constant_on_the_orbit():
    rows = orbit("00001010000").rows
    words = {(slither_from_row(r).word, coslither_from_row(r).word) for r in rows}
    # one cyclic class; rotations may differ but these rows all agree exactly
    assert len({(w[0], w[1]) for w in words}) >= 1
    for ws, wc in words:
        assert sorted(ws) == sorted("EDEDED")
        assert sorted(wc) == sorted("SS")


def test_letter_counts():
    ws = slither_from_row("10100001010")
    wc = coslither_from_row("10100001010")
    assert (ws.beta_e, ws.beta_d) == (3, 3)
    assert (wc.alpha_s, wc.alpha_l) == (2, 0)
    assert ws.beta == 6 and wc.alpha == 2


def test_running_example_metrics():
    met = metrics_from_row("10100001010", 11)
    assert met.deg == 3 and met.codeg == 2
    assert met.p == 14 and met.q == 21
    assert met.sigma == 42
    assert met.T_tape == 7
    assert met.T_scroll == 7


def test_scale_closed_forms_agree_everywhere():
    for n in range(2, 12):
        for bits in enumerate_independent_sets(n):
            if "1" not in bits:
                continue
            met = metrics_from_row(bits, n)
            ws, wc = met.slither, met.coslither
            assert met.sigma == 2 * ws.beta_e + (n + 1) * ws.beta_d
            assert met.sigma == (2 * n - 1) * wc.alpha_s + (2 * n - 2) * wc.alpha_l


def test_degenerate_two_cycle():
    met = metrics_from_row("10", 2)
    assert met.slither.word == "D"
    assert met.coslither.word == "S"
    assert met.sigma == 3
    assert met.T_scroll == 3  # orbit 10 -> 01 -> 00 -> 10
