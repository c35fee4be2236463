"""ANSI and SVG rendering of orbit tables."""

import pytest

import oracles
from snakescroll.cycles import enumerate_independent_sets, orbit
from snakescroll.render import ansi_table, svg_table
from snakescroll.scroll import Scroll

# C_2..C_10 at omega 1..4; then n = 16 at omega 3, 369 rows of which 123 are
# distinct (sigma = 123, gcd(sigma, 16) = 1), with split edges
TABLES = [
    (seed, omega)
    for n in range(2, 11)
    for seed in sorted(enumerate_independent_sets(n))
    for omega in range(1, 5)
] + [("0000000100100100", 3)]


def test_renderers_match_the_per_cell_oracles():
    for seed, omega in TABLES:
        s = orbit(seed)
        assert ansi_table(s, omega) == oracles.ansi_table(s, omega), (seed, omega)
        assert svg_table(s, omega) == oracles.svg_table(s, omega), (seed, omega)


def test_the_n16_table_reuses_rows_and_splits_edges():
    s = orbit("0000000100100100")
    assert 3 * s.m == 369 and s.metrics.sigma == 123
    rows = ansi_table(s, 3).split("\n\n")[0].splitlines()[1:]
    assert len(rows) == 369 and len(set(rows)) == 123
    assert 'cx="14"' in svg_table(s, 3)  # a re-entry marker on the left margin


@pytest.mark.parametrize(
    "letters, what", [("successor_letters", "successor"), ("co_successor_letters", "co-successor")]
)
def test_svg_raises_on_a_non_unique_step_letter(letters, what):
    # count digit "2" at live index 7 of the letter table (P = 7): building
    # the table walks the cycles mod P, for its counts, which raise with the
    # step's message, naming the index in [1, P]
    s = orbit("00001010000")
    table = oracles.letters_of(s, letters)
    oracles.inject_letters(s, letters, table[:6] + "2" + table[7:])
    with pytest.raises(
        AssertionError, match=f"^{what} of live index 7: 2 live candidates, expected 1$"
    ):
        svg_table(s, 1)


@pytest.mark.parametrize(
    "co_index, succ_index, what",
    [(5, 7, "co-successor of live index 5"), (5, 5, "successor of live index 5")],
)
def test_svg_raises_at_the_first_entry_without_a_unique_letter(co_index, succ_index, what):
    # the scroll's counts and labels (and the oracle's) are built
    # before a count digit "2" is injected into the co-successor letters at
    # live index co_index and into the successor letters at succ_index
    # (P = 7, live indices 5 and 7), and the step advances are rebuilt:
    # svg_table's own step reads raise, at the first entry in tape order,
    # the successor before the co-successor, as the per-entry oracle does
    s = orbit("00001010000")
    s.snakes, s.snake_labels
    labels = oracles.walked_labels(s, s.metrics.sigma)
    for name, index in (("co_successor_letters", co_index), ("successor_letters", succ_index)):
        old = oracles.letters_of(s, name)
        oracles.inject_letters(s, name, old[: index - 1] + "2" + old[index:])
    vars(s)["step_advances"] = Scroll.step_advances.func(s)
    message = f"^{what}: 2 live candidates, expected 1$"
    with pytest.raises(AssertionError, match=message):
        oracles.svg_table(s, 1, labels)
    with pytest.raises(AssertionError, match=message):
        svg_table(s, 1)


def test_svg_tests_both_targets_of_an_entry():
    # at n = 2 a successor D (advance 3) passes the last row of the table
    # where a co-successor L (advance 2) from the same entry would not; no
    # orbit has that pair (the co-successor letters of C_2 are all S), so L
    # is injected after the labels are built: from the last live entry, t = 4
    # of 6, the successor edge is drawn split and the co-successor straight,
    # as the per-entry oracle draws them
    s = orbit("10")
    s.snakes, s.snake_labels
    labels = oracles.walked_labels(s, s.metrics.sigma)
    assert (s.step_letters, s.m) == (("D..", "S.."), 3)
    oracles.inject_letters(s, "co_successor_letters", "L..")
    vars(s)["step_advances"] = Scroll.step_advances.func(s)
    svg = svg_table(s, 1)
    assert svg == oracles.svg_table(s, 1, labels)
    assert svg.count('r="3"') == 2  # one split edge: its two re-entry markers
