"""Slither calculus: step words extracted from a single row.

A row with a live entry in column 1 decomposes into maximal 0-blocks.
Each inner block of size z contributes the subslither E (z=1) or
D E^(floor(z/2)-1) D (z>=2); the trailing block contributes the partial
subslither D E^(floor((z-1)/2)).  The co-slither starts with a letter
read off the trailing-zero parity (odd -> S, even -> L) followed by one
letter per inner block of size z>1, taken right to left (z even -> S,
z odd -> L).

>>> slither_from_row("10100001010").word
'EDEDED'
>>> coslither_from_row("10100001010").word
'SS'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclic import exponent

# (rows, columns) one step of each type moves across the scroll
_STEP_SHAPE = {"E": (0, 2), "D": (1, 1), "S": (2, -1), "L": (2, -2)}


def step_advance(kind: str, n: int) -> int:
    """Tape advance of one step of the given type."""
    rows, cols = _STEP_SHAPE[kind]
    return rows * n + cols


@dataclass(frozen=True)
class Slither:
    word: str

    @property
    def beta_d(self) -> int:
        return self.word.count("D")

    @property
    def beta_e(self) -> int:
        return self.word.count("E")

    @property
    def beta(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class CoSlither:
    word: str

    @property
    def alpha_s(self) -> int:
        return self.word.count("S")

    @property
    def alpha_l(self) -> int:
        return self.word.count("L")

    @property
    def alpha(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class ZeroBlocks:
    """Gap structure of a row whose column 1 is live."""

    inner_lengths: tuple[int, ...]  # one per gap between live entries
    trailing_length: int  # zeros after the last live entry


def analysis_window(row: str) -> str:
    """Length-n tape window starting at the row's first live entry.

    When column 1 is live this is the row itself.  Otherwise the window
    continues past the row end into the next sweep iterate; plain
    rotation of the row would splice in the wrong zeros and change the
    extracted words, so the missing prefix is taken from sweep(row).
    """
    first = row.find("1")
    if first < 0:
        raise ValueError("all-zero row has no slither")
    if first == 0:
        return row
    from .cycles import sweep

    return row[first:] + sweep(row)[:first]


def zero_blocks(row: str) -> ZeroBlocks:
    if "1" not in row:
        raise ValueError("all-zero row has no gap structure")
    if row[0] != "1":
        raise ValueError("row must be rotated so column 1 is live")
    ones = [i for i, b in enumerate(row) if b == "1"]
    inner = tuple(b - a - 1 for a, b in zip(ones, ones[1:]))
    return ZeroBlocks(inner, len(row) - 1 - ones[-1])


def _subslither(z: int) -> str:
    if z == 1:
        return "E"
    return "D" + "E" * (z // 2 - 1) + "D"


def slither_from_row(row: str) -> Slither:
    blocks = zero_blocks(analysis_window(row))
    parts = [_subslither(z) for z in blocks.inner_lengths]
    zt = blocks.trailing_length
    parts.append("D" + "E" * ((zt - 1) // 2))
    return Slither("".join(parts))


def coslither_from_row(row: str) -> CoSlither:
    blocks = zero_blocks(analysis_window(row))
    first = "S" if blocks.trailing_length % 2 == 1 else "L"
    rest = [
        "S" if z % 2 == 0 else "L"
        for z in reversed(blocks.inner_lengths)
        if z > 1
    ]
    return CoSlither(first + "".join(rest))


def degree(w: Slither) -> int:
    return exponent(w.word)


def codegree(w: CoSlither) -> int:
    return exponent(w.word)


@dataclass(frozen=True)
class ScrollMetrics:
    slither: Slither
    coslither: CoSlither
    deg: int
    codeg: int
    p: int  # snake scale
    q: int  # co-snake scale
    sigma: int  # scale
    T_tape: int
    T_scroll: int


def metrics_from_row(row: str, n: int) -> ScrollMetrics:
    """All scale data computable from one row of the scroll."""
    if len(row) != n:
        raise ValueError("row length does not match n")
    ws = slither_from_row(row)
    wc = coslither_from_row(row)
    sigma = 2 * ws.beta_e + (n + 1) * ws.beta_d
    sigma_co = (2 * n - 1) * wc.alpha_s + (2 * n - 2) * wc.alpha_l
    if sigma != sigma_co:
        raise AssertionError(
            f"scale closed forms disagree: {sigma} != {sigma_co} on {row!r}"
        )
    deg = degree(ws)
    codeg = codegree(wc)
    p = sigma // deg
    q = sigma // codeg
    T_tape = gcd(p, q)
    T_scroll = lcm(T_tape, n) // n
    return ScrollMetrics(ws, wc, deg, codeg, p, q, sigma, T_tape, T_scroll)
