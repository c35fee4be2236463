"""Slither calculus: step words extracted from one tape window.

`words_from_row` reads the two words off a length-n window of the tape
that starts at a live entry (a scroll takes it from its least tape
period, and a constructed first row is one already), and
`metrics_from_row` hands them to `metrics_from_words`, the closed forms.
Such a window decomposes into maximal 0-blocks.  Each inner block of size
z contributes the subslither E (z=1) or D E^(floor(z/2)-1) D (z>=2); the
trailing block contributes the partial subslither D E^(floor((z-1)/2)).
The co-slither starts with a letter read off the trailing-zero parity
(odd -> S, even -> L) followed by one letter per inner block of size z>1,
taken right to left (z even -> S, z odd -> L).  Both words are plain
strings (`ScrollMetrics.slither`, `.coslither`), and each reader counts
their letters with `str.count` and `len`: beta_D, beta_E, alpha_S and
alpha_L, and beta and alpha, the two lengths.  A step of each letter moves
a fixed (rows, columns) shape across the scroll, so rows*n + columns along
the tape; `step_advances` is the one table of those advances per n.

>>> words_from_row("10100001010", 11)
('EDEDED', 'SS')
"""

from __future__ import annotations

import functools
from math import gcd, lcm
from typing import NamedTuple

from .cyclic import exponent

# (rows, columns) one step of each type moves across the scroll
_STEP_SHAPE = {"E": (0, 2), "D": (1, 1), "S": (2, -1), "L": (2, -2)}


@functools.lru_cache(maxsize=None)
def step_advances(n: int) -> tuple[dict[str, int], dict[str, int]]:
    """Per step letter, its tape advance rows*n + columns (`_STEP_SHAPE`),
    then its negation, the advance of the inverse step: the one table of
    each direction, fixed by n, built once per n and shared, so never
    changed."""
    forward = {x: rows * n + cols for x, (rows, cols) in _STEP_SHAPE.items()}
    return forward, {x: -d for x, d in forward.items()}


def zero_blocks(row: str) -> tuple[tuple[int, ...], int]:
    """The gaps of a row whose column 1 is live: the length of each gap
    between live entries, and the number of zeros after the last one."""
    if "1" not in row:
        raise ValueError("all-zero row has no gap structure")
    if row[0] != "1":
        raise ValueError("row must start at a live entry")
    *inner, trailing = row[1:].split("1")
    return tuple(map(len, inner)), len(trailing)


def _slither_word(inner: tuple[int, ...], trailing: int) -> str:
    parts = ["E" if z == 1 else "D" + "E" * (z // 2 - 1) + "D" for z in inner]
    parts.append("D" + "E" * ((trailing - 1) // 2))
    return "".join(parts)


def _coslither_word(inner: tuple[int, ...], trailing: int) -> str:
    first = "S" if trailing % 2 == 1 else "L"
    return first + "".join(["S" if z % 2 == 0 else "L" for z in reversed(inner) if z > 1])


class ScrollMetrics(NamedTuple):
    slither: str  # over D and E
    coslither: str  # over S and L
    deg: int
    codeg: int
    p: int  # snake scale
    q: int  # co-snake scale
    sigma: int  # scale
    T_tape: int
    T_scroll: int


def metrics_from_words(slither: str, coslither: str, n: int) -> ScrollMetrics:
    """All scale data of the tape with these slither and co-slither words."""
    sigma = 2 * slither.count("E") + (n + 1) * slither.count("D")
    deg = exponent(slither)
    codeg = exponent(coslither)
    p = sigma // deg
    q = sigma // codeg
    T_tape = gcd(p, q)
    T_scroll = lcm(T_tape, n) // n
    return ScrollMetrics(slither, coslither, deg, codeg, p, q, sigma, T_tape, T_scroll)


def words_from_row(row: str, n: int) -> tuple[str, str]:
    """The slither and co-slither words of the tape window row.

    The row must start at a live entry.  A row of the scroll that is dead
    in column 1 is not such a window: rotating it splices in the wrong
    zeros, so it is rejected.
    """
    if len(row) != n:
        raise ValueError("row length does not match n")
    blocks = zero_blocks(row)
    return _slither_word(*blocks), _coslither_word(*blocks)


def metrics_from_row(row: str, n: int) -> ScrollMetrics:
    """All scale data of the tape window row, which starts at a live entry."""
    return metrics_from_words(*words_from_row(row, n), n)
