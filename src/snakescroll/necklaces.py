"""Binary necklaces with fixed content, by canonical-rotation filtering.

A necklace is an equivalence class of words under rotation; we represent
each class by its least rotation.  Every arrangement of the content is
generated and kept when it is its own least rotation; `canonical` is
linear, so the filter costs O(L) per candidate.  Counts are cross-checked against the
Burnside formula (1/L) * sum over d | gcd(k, L-k) of phi(d)*C(L/d, k/d).
"""

from __future__ import annotations

from math import comb, gcd

from .cyclic import canonical


def _arrangements(a: str, b: str, ca: int, cb: int) -> list[str]:
    out: list[str] = []
    word: list[str] = []

    def rec(ra: int, rb: int) -> None:
        if ra == 0 and rb == 0:
            out.append("".join(word))
            return
        if ra:
            word.append(a)
            rec(ra - 1, rb)
            word.pop()
        if rb:
            word.append(b)
            rec(ra, rb - 1)
            word.pop()

    rec(ca, cb)
    return out


def _phi(d: int) -> int:
    result, x, p = d, d, 2
    while p * p <= x:
        if x % p == 0:
            while x % p == 0:
                x //= p
            result -= result // p
        p += 1
    if x > 1:
        result -= result // x
    return result


def binary_necklace_count(length: int, k: int) -> int:
    """Number of binary necklaces of the given length with k marked beads."""
    if length == 0:
        return 1 if k == 0 else 0
    total = 0
    for d in range(1, length + 1):
        if length % d == 0 and k % d == 0 and (length - k) % d == 0:
            total += _phi(d) * comb(length // d, k // d)
    return total // length


def necklaces_fixed_content(a: str, b: str, ca: int, cb: int) -> list[str]:
    """All necklaces over {a, b} with ca copies of a and cb of b (a < b)."""
    reps = sorted(
        {w for w in _arrangements(a, b, ca, cb) if canonical(w) == w}
    )
    expected = binary_necklace_count(ca + cb, ca)
    if len(reps) != expected:
        raise AssertionError(
            f"necklace filter found {len(reps)}, Burnside says {expected}"
        )
    return reps
