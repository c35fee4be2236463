"""Toggle dynamics on independent sets of the cycle graph C_n.

An independent set is stored as a string of '0'/'1' of length n, read
least vertex first; vertex indices are 1-based in the public API.
`is_independent` checks such a word and rejects one that is not a binary
word of length at least 2; `orbit` rejects a seed that is not independent.
The sweep applies the single-vertex toggles at 1, 2, ..., n in order, each
acting on the word produced by the previous one, so the test at vertex n
sees the already-updated value at vertex 1.

So the rows of an orbit, read one after another, form a ticker tape
with X_t = NOR(X_(t-1), X_(t-n), X_(t-n+1)): the toggle at t sees its
left neighbour already updated, and its right one updated only at the
wrap.  `orbit` and `all_orbits` run this recurrence on an n-bit state
until the state first returns, after T steps, T the tape period, and
hand that one tape period to a `Scroll`, the one record of an orbit; its
rows, the states at steps k*n mod T, are built from it on request.  The
tests hold them to the sweep as a string function, one toggle at a time.

>>> orbit("00001010000").rows[1]
'10100001010'
>>> orbit("00").rows
('00', '10', '01')
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .scroll import Scroll


def is_independent(bits: str) -> bool:
    """True iff no two cyclically adjacent positions both hold 1; a word of
    fewer than 2 letters, or not over '0' and '1', is a ValueError."""
    if len(bits) < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"not a binary word: {bits!r}")
    return "11" not in bits + bits[0]


def _independent_words(n: int) -> list[int]:
    """All independent sets of C_n as n-bit integers (vertex k is bit n-k), ascending.

    The words of k bits with no two adjacent 1s are those of k-1 bits and,
    with bit k-1 set, those of k-2 bits (one word, 0, of k <= 0 bits).  A
    set of C_n with vertex 1 out is such a word of n-1 bits; with vertex 1
    in, vertices 2 and n are out, and the rest is such a word x of n-3
    bits: 1 << (n-1) | x << 1, after all the others.
    """
    if n < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    older, shorter, words = [0], [0], [0, 1]  # the words of k-2, k-1 and k bits, k = 1
    for k in range(2, n):
        older, shorter, words = shorter, words, words + [1 << (k - 1) | x for x in shorter]
    top = 1 << (n - 1)
    return words + [top | x << 1 for x in older]


def enumerate_independent_sets(n: int) -> list[str]:
    """All independent sets of C_n in lexicographic order."""
    return [format(w, f"0{n}b") for w in _independent_words(n)]


def _tape_states(start: int, n: int) -> list[int]:
    """The n-bit tape states from start until it first returns.

    Read row by row, the sweep is the recurrence
    X_t = NOR(X_(t-1), X_(t-n), X_(t-n+1)); a state holds the last n tape
    symbols, X_(t-1) as bit 0 and X_(t-n) as bit n-1, so int(row, 2) is the
    state after that row.  A state determines every later one, so the
    number of states before the first return is the tape period T.
    """
    mask, near = (1 << n) - 1, 1 | 3 << (n - 2)
    states, w = [], start
    while True:
        states.append(w)
        w = (w << 1 & mask) | (0 if w & near else 1)
        if w == start:
            return states


def orbit(bits: str) -> Scroll:
    """The sweep orbit of one seed, checked once, simulated over one tape period."""
    # the toggle maps are only defined on independent sets; reject the rest
    if not is_independent(bits):
        raise ValueError(f"not an independent set of C_{len(bits)}: {bits!r}")
    n = len(bits)
    # X_1..X_T: the leading bit of each tape state
    return Scroll(bytes([w >> n - 1 for w in _tape_states(int(bits, 2), n)]), n)


def all_orbits(n: int) -> Iterator[Scroll]:
    """The sweep orbits of C_n, one per orbit, each yielded as it is found.

    Each orbit is simulated on its tape over one period T from its least
    row; its rows, the states at the multiples of gcd(T, n), are marked
    seen.  A caller that checks each orbit and drops it holds one at a time.
    """
    seen: set[int] = set()
    for start in _independent_words(n):
        if start in seen:
            continue
        states = _tape_states(start, n)
        seen.update(states[:: gcd(len(states), n)])
        yield Scroll(bytes([w >> n - 1 for w in states]), n)
