"""SVG rendering of orbit tables."""

import pytest

from snakescroll.render import svg_table
from snakescroll.scroll import scroll_from_seed
from snakescroll.tables import omega_table


@pytest.mark.parametrize(
    "letters, what", [("successor_letters", "successor"), ("co_successor_letters", "co-successor")]
)
def test_svg_raises_on_a_non_unique_step_letter(letters, what):
    # count digit "2" at live index 7 of the period table (P = T_tape = 7):
    # building the table reads the period advances, for its counts, which raise
    # with the step's message, naming the index in [1, T]
    s = scroll_from_seed("00001010000")
    table = getattr(s, letters)
    vars(s)[letters] = table[:6] + "2" + table[7:]
    with pytest.raises(
        AssertionError, match=f"^{what} of live index 7: 2 live candidates, expected 1$"
    ):
        svg_table(omega_table(s, 1))
