"""Small helpers for words considered up to cyclic rotation.

The canonical form is the least rotation, found in O(L) time and memory
by Booth's algorithm (K. S. Booth, "Lexicographically least circular
substrings", IPL 1980).  Classification canonicalises its tape periods
with `canonical_binary`, which only compares the rotations at the
longest zero runs; Booth's `canonical` is the simulation-side oracle,
the form of the simulated orbit rows that `verify` compares them with.
"""

from __future__ import annotations


_LETTER_RANK = str.maketrans("DESL01", "010101")


def canonical(word: str) -> str:
    """Least rotation in lexicographic order with D < E and S < L.

    ASCII agrees for D/E but not for S/L, so Booth's algorithm runs on
    the rank translation, and the start it finds rotates the raw word.
    """
    ranked = word.translate(_LETTER_RANK) * 2
    # fail[d]: failure function of the least candidate so far, which starts at k.
    fail = [-1] * len(ranked)
    k = 0
    for j in range(1, len(ranked)):
        c = ranked[j]
        i = fail[j - k - 1]
        while i != -1 and c != ranked[k + i + 1]:
            if c < ranked[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != ranked[k + i + 1]:  # here i == -1
            if c < ranked[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return word[k:] + word[:k]


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
