"""The flat ticker tape, successor maps, snake partitions."""

import pytest

from snakescroll.cycles import Orbit
from snakescroll.scroll import Scroll, scroll_from_seed, snakes_and_cosnakes

SEED11 = "00001010000"


def test_scroll_reads_repeat_the_orbit():
    s = scroll_from_seed(SEED11)
    assert s.m == 7
    for t in range(-2 * 77, 2 * 77):
        assert s.tape(t) == s.tape(t + 77)  # one orbit period: m*n tape cells


def test_successor_steps_on_the_running_example():
    s = scroll_from_seed(SEED11)
    # row 0 live columns are 5 and 7: tape indices 5 and 7
    assert s.tape(5) == 1 and s.tape(7) == 1
    assert s.successor_step(5) == (7, "E")
    t, letter = s.successor_step(7)
    assert (t, letter) == (19, "D")  # lands in row 1
    assert s.predecessor(7) == 5
    assert s.co_predecessor(s.co_successor(5)) == 5


def test_successor_and_co_successor_commute():
    s = scroll_from_seed(SEED11)
    live = [t for t in range(1, 7 * 11 + 1) if s.tape(t) == 1]
    for t in live:
        assert s.successor(s.co_successor(t)) == s.co_successor(s.successor(t))


def test_steps_reject_dead_indices():
    s = scroll_from_seed(SEED11)
    with pytest.raises(ValueError):
        s.successor(6)


def test_snake_partition_counts():
    s = scroll_from_seed(SEED11)
    part = snakes_and_cosnakes(s)
    assert part.sigma == 42
    assert part.alpha == 2
    assert part.beta == 6
    assert len(part.window) == 12  # alpha * beta


def test_snake_labels_invariant_under_steps():
    s = scroll_from_seed(SEED11)
    part = snakes_and_cosnakes(s)
    for t in part.window:
        assert part.snake_of(s.successor(t)) == part.snake_of(t)
        assert part.cosnake_of(s.co_successor(t)) == part.cosnake_of(t)


def test_fibers_are_singletons():
    s = scroll_from_seed(SEED11)
    part = snakes_and_cosnakes(s)
    for t in part.window:
        fiber = [
            u
            for u in part.window
            if part.snake_of(u) == part.snake_of(t)
            and part.cosnake_of(u) == part.cosnake_of(t)
        ]
        assert fiber == [t]
        assert part.snake_of(t + 42) == part.snake_of(t)
        assert part.cosnake_of(t + 42) == part.cosnake_of(t)


def test_step_failures_are_per_index():
    # not a sweep orbit: tape 10000010 repeating, live at residues 1 and 7
    s = Scroll(Orbit(("1000", "0010")))
    with pytest.raises(AssertionError, match="0 live candidates"):
        s.successor_step(1)
    with pytest.raises(ValueError):
        s.successor_step(2)
    assert s.co_successor_step(1) == (7, "L")


def test_metrics_raise_on_inconsistent_use():
    s = scroll_from_seed(SEED11)
    assert s.tape_period == 7
