"""Binary necklaces with fixed content, generated directly.

A necklace is an equivalence class of words under rotation; we represent
each class by its least rotation.  The generator is the simple
fixed-content recursion (J. Sawada, "A fast algorithm to generate
necklaces with fixed content", TCS 2003): it extends prenecklaces (prefixes
of necklaces) one letter at a time within the remaining letter counts,
tracking the period p of the longest Lyndon prefix, and emits a completed
word exactly when p divides its length L.  Only prenecklaces are built,
never the other arrangements of the content.  Counts are cross-checked
against the Burnside formula (1/L) * sum over d | gcd(k, L-k) of
phi(d)*C(L/d, k/d).
"""

from __future__ import annotations

from math import comb


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
    """All necklaces over {a, b} with ca copies of a and cb of b (a < b).

    a ranks below b (D < E, S < L); the list is in ASCII order.
    """
    length = ca + cb
    if ca == 0:
        reps = [b * cb]
    else:
        out: list[str] = []
        letters = (a, b)
        word = [0] * (length + 1)  # word[1..length] in ranks; word[1] = 0
        left = [ca - 1, cb]

        def gen(t: int, p: int) -> None:
            if t > length:
                if length % p == 0:
                    out.append("".join([letters[x] for x in word[1:]]))
                return
            prev = word[t - p]
            for j in range(prev, 2):
                if left[j]:
                    left[j] -= 1
                    word[t] = j
                    gen(t + 1, p if j == prev else t)
                    left[j] += 1

        gen(2, 1)
        reps = sorted(out)
    expected = binary_necklace_count(length, ca)
    if len(reps) != expected:
        raise AssertionError(
            f"necklace generator found {len(reps)}, Burnside says {expected}"
        )
    return reps
