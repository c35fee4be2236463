"""Small helpers for words considered up to cyclic rotation.

The canonical form of a tape period is its least rotation
(`canonical_binary`), found by comparing only the rotations that start at
its longest zero runs.  Classification stores each class's period that
way, and `verify` puts each simulated orbit's least period in the same
form to compare the two.
"""

from __future__ import annotations


def canonical_binary(word: str) -> str:
    """Least rotation of a 0/1 word that contains a 1, with 0 < 1.

    The least rotation opens with as many 0s as any rotation can, so it
    starts at one of the longest zero runs, read cyclically.  Only those
    starts are candidates, each a slice of the doubled word.
    """
    runs = word.split("1")
    if len(runs) == 1:
        raise ValueError(f"{word!r} has no 1")
    longest = max(max(map(len, runs)), len(runs[0]) + len(runs[-1]))
    lead = "1" + "0" * longest
    doubled, size = word + word, len(word)
    starts = []
    j = doubled.find(lead)
    while 0 <= j < size:
        starts.append(j + 1)
        j = doubled.find(lead, j + 1)
    return min(doubled[k:k + size] for k in starts)


def cyclically_equal(a: str, b: str) -> bool:
    return len(a) == len(b) and (len(a) == 0 or b in a + a)


def least_period(word: str | bytes) -> int:
    """Smallest d > 0 with a nonempty word equal to its rotation by d: the
    first match of word in word+word after 0, which divides len(word)."""
    return (word + word).find(word, 1)


def exponent(word: str) -> int:
    """len / least cyclic period; the repeated-block count."""
    return len(word) // least_period(word)
