"""Step words and scale data extracted from single rows."""

import pytest

from snakescroll.cycles import all_orbits, enumerate_independent_sets, orbit
from snakescroll.scroll import Scroll
from snakescroll.slither import metrics_from_row, step_advances, words_from_row, zero_blocks

from oracles import STEP_SHAPE, vector


def live_windows(s: Scroll):
    """The length-n tape window from every live index of the vector, as 0/1 words."""
    bits = vector(s)
    doubled = "".join(map(str, bits * 2))
    for start, bit in enumerate(bits):
        if bit:
            yield doubled[start : start + s.n]


def test_step_advances():
    advance = step_advances(11)[0]
    assert advance["E"] == 2
    assert advance["D"] == 12
    assert advance["S"] == 21
    assert advance["L"] == 20


def test_step_advances_are_the_oracle_shapes():
    # each letter's (rows, columns) shape, restated by the oracle, moves
    # rows*n + columns along the tape; the inverse step moves back as far
    for n in range(2, 21):
        forward = {x: rows * n + cols for x, (rows, cols) in STEP_SHAPE.items()}
        assert step_advances(n) == (forward, {x: -d for x, d in forward.items()})


def test_metrics_reject_a_window_not_starting_live():
    for read in (metrics_from_row, words_from_row):
        with pytest.raises(ValueError, match="live entry"):
            read("00001010000", 11)
        with pytest.raises(ValueError):
            read("0000", 4)
        with pytest.raises(ValueError, match="length"):
            read("10100001010", 12)


def test_scroll_metrics_read_the_vector_window():
    # the seed row is dead in column 1; the window runs into the next row
    assert orbit("00001010000").metrics == metrics_from_row("10100001010", 11)


def test_zero_blocks():
    assert zero_blocks("10100001010") == ((1, 4, 1), 1)


def test_running_example_words():
    assert words_from_row("10100001010", 11) == ("EDEDED", "SS")
    met = metrics_from_row("10100001010", 11)
    assert (met.slither, met.coslither) == ("EDEDED", "SS")


def test_words_constant_on_the_orbit():
    windows = live_windows(orbit("00001010000"))
    words = {
        (met.slither, met.coslither)
        for met in (metrics_from_row(w, 11) for w in windows)
    }
    # one cyclic class; rotations may differ but these windows all agree exactly
    assert len({(w[0], w[1]) for w in words}) >= 1
    for ws, wc in words:
        assert sorted(ws) == sorted("EDEDED")
        assert sorted(wc) == sorted("SS")


def test_letter_counts():
    met = metrics_from_row("10100001010", 11)
    ws, wc = met.slither, met.coslither
    assert (ws.count("E"), ws.count("D")) == (3, 3)
    assert (wc.count("S"), wc.count("L")) == (2, 0)
    assert len(ws) == 6 and len(wc) == 2


def test_extraction_identities_on_every_live_row_to_n20():
    # the letter-count laws "beta_D = 2 alpha - 1" and "2bE + 3aS + 4aL =
    # n+1" are identities of the word extraction, checked on every
    # independent row of C_2..C_20 that starts at a live entry, with the
    # gaps between live entries counted here: beta_D = 2 alpha - 1 =
    # 2 #(inner gaps >= 2) + 1, and each inner gap z adds z + 1 and the
    # trailing gap z_t adds z_t + 2 to 2 beta_E + 3 alpha_S + 4 alpha_L
    rows = 0
    for n in range(2, 21):
        for row in enumerate_independent_sets(n):
            if row[0] != "1":
                continue
            slither, coslither = words_from_row(row, n)
            live = [j for j, x in enumerate(row) if x == "1"]
            inner = [b - a - 1 for a, b in zip(live, live[1:])]
            wide = sum(z >= 2 for z in inner)
            assert slither.count("D") == 2 * len(coslither) - 1 == 2 * wide + 1, row
            weighted = 2 * slither.count("E") + 3 * coslither.count("S") + 4 * coslither.count("L")
            trailing = n - 1 - live[-1]
            assert weighted == sum(z + 1 for z in inner) + trailing + 2 == n + 1, row
            rows += 1
    assert rows == 10945


def test_running_example_metrics():
    met = metrics_from_row("10100001010", 11)
    assert met.deg == 3 and met.codeg == 2
    assert met.p == 14 and met.q == 21
    assert met.sigma == 42
    assert met.T_tape == 7
    assert met.T_scroll == 7


def test_scale_closed_forms_agree_everywhere():
    for n in range(2, 12):
        for window in (w for o in all_orbits(n) for w in live_windows(o)):
            met = metrics_from_row(window, n)
            ws, wc = met.slither, met.coslither
            assert met.sigma == 2 * ws.count("E") + (n + 1) * ws.count("D")
            assert met.sigma == (2 * n - 1) * wc.count("S") + (2 * n - 2) * wc.count("L")


def test_degenerate_two_cycle():
    met = metrics_from_row("10", 2)
    assert met.slither == "D"
    assert met.coslither == "S"
    assert met.sigma == 3
    assert met.T_scroll == 3  # orbit 10 -> 01 -> 00 -> 10
