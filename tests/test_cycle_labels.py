"""Cycle labels of a permutation: the partition behind snakes and ouroboroi."""

import pytest

from snakescroll.cycles import all_orbits
from snakescroll.scroll import Scroll, label_cycles
from snakescroll.tables import omega_table


def test_labels_are_least_cycle_members():
    # residue 0 is not live; (2 4) and (3 5) are cycles
    perm = [None, 1, 4, 5, 2, 3]
    assert label_cycles((1, 2, 3, 4, 5), perm) == ([None, 1, 2, 3, 2, 3], 3)
    shift = [(x + 2) % 6 for x in range(6)]
    assert label_cycles(range(6), shift) == ([0, 1, 0, 1, 0, 1], 2)


@pytest.mark.parametrize(
    "perm",
    [
        [1, 2, 1],  # not injective: 0 falls into the cycle (1 2)
        [1, 0, 1],  # 2 lands in an already labelled cycle
        [1, 3, None, None],  # leaves the live residues 0, 1
    ],
)
def test_non_permutations_are_rejected(perm):
    live = [r for r, x in enumerate(perm) if x is not None]
    with pytest.raises(AssertionError, match="not a permutation"):
        label_cycles(live, perm)


def _walked_labels(s, modulus):
    """Least member of each cycle of successor and co-successor on the live
    residues mod modulus, by walking the tape steps; None on dead residues."""
    size = len(s.vector)
    live = [r for r in range(modulus) if s.vector[(r - 1) % size]]
    labels = []
    for step in (s.successor, s.co_successor):
        label = [None] * modulus
        for r in live:
            cycle, t = [r], step(r) % modulus
            while t != r:
                cycle.append(t)
                t = step(t) % modulus
            label[r] = min(cycle)
        labels.append(label)
    return labels


def _assert_labels_walked(s, part):
    snake, cosnake = _walked_labels(s, part.modulus)
    assert part.snake_label == snake
    assert part.cosnake_label == cosnake
    assert part.alpha == len(set(snake) - {None})
    assert part.beta == len(set(cosnake) - {None})


def test_labels_match_walked_cycles():
    # oracle: every snake partition with n <= 16 and every table partition
    # with n <= 10 and omega <= 4, against the steps walked cycle by cycle
    orbits = [Scroll(o) for n in range(2, 17) for o in all_orbits(n)]
    assert len(orbits) == 159
    tables = 0
    for s in orbits:
        _assert_labels_walked(s, s.snakes)
        if s.n <= 10:
            for omega in range(1, 5):
                _assert_labels_walked(s, omega_table(s, omega).ouroboroi)
                tables += 1
    assert tables == 4 * sum(len(all_orbits(n)) for n in range(2, 11))
