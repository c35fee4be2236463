"""Cycle labels of a permutation: the partition behind snakes and ouroboroi."""

import pytest

from snakescroll.scroll import cycle_labels


def test_labels_are_least_cycle_members():
    perm = {1: 1, 2: 4, 4: 2, 3: 5, 5: 3}
    assert cycle_labels([1, 2, 3, 4, 5], perm.__getitem__) == {1: 1, 2: 2, 3: 3, 4: 2, 5: 3}
    assert cycle_labels(range(6), lambda x: (x + 2) % 6) == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}


@pytest.mark.parametrize(
    "perm",
    [
        {0: 1, 1: 2, 2: 1},  # not injective: 0 falls into the cycle (1 2)
        {0: 1, 1: 0, 2: 1},  # 2 lands in an already labelled cycle
        {0: 1, 1: 3},  # leaves the item set
    ],
)
def test_non_permutations_are_rejected(perm):
    with pytest.raises(AssertionError, match="not a permutation"):
        cycle_labels(sorted(perm), perm.__getitem__)
