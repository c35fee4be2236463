"""Small helpers for words considered up to cyclic rotation."""

from __future__ import annotations


def rotations(word: str) -> list[str]:
    return [word[i:] + word[:i] for i in range(len(word))]


_LETTER_RANK = str.maketrans("DESL01", "010101")


def canonical(word: str) -> str:
    """Least rotation in lexicographic order with D < E and S < L.

    ASCII agrees for D/E but not for S/L, so compare through a rank
    translation instead of the raw strings.
    """
    return min(rotations(word), key=lambda w: w.translate(_LETTER_RANK))


def cyclically_equal(a: str, b: str) -> bool:
    return len(a) == len(b) and (len(a) == 0 or b in a + a)


def least_period(word: str) -> int:
    """Smallest d with word equal to its rotation by d; divides len(word)."""
    doubled = word + word
    d = doubled.find(word, 1)
    # The failure-function trick: the first nontrivial occurrence of word in
    # word+word starts at the least period.
    if d <= 0 or len(word) % d != 0:
        return len(word)
    return d


def exponent(word: str) -> int:
    """len / least cyclic period; the repeated-block count."""
    return len(word) // least_period(word)
