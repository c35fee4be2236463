"""Binary necklaces with fixed content, generated over their gaps.

A necklace is an equivalence class of words under rotation; we represent
each class by its least rotation.  A word over a < b that starts with
one of its ca >= 1 copies of a is a b^g1 a b^g2 ... a b^g_ca, read off its
gap sequence (g1, ..., g_ca), which sums to cb.  Two such words of equal
content compare as their gap sequences do, and the rotations that start
at an a, among them the least, are the rotations of the gaps: a word is
a necklace exactly when its gap sequence is one.  The generator is the
Fredricksen-Kessler-Maiorana prenecklace recursion on gap sequences of
length ca: each gap is at least the one a period p back and at most the
sum left, the last gap takes what is left, and a sequence is emitted
exactly when p divides ca.  Only prenecklaces are built, never the other
arrangements of the content.  Counts are cross-checked against the
Burnside formula (1/L) * sum over d | gcd(k, L-k) of phi(d)*C(L/d, k/d).
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
    if ca == 0:
        reps = [b * cb]
    else:
        reps = []
        pieces = [a + b * g for g in range(cb + 1)]  # a and the gap after it
        gaps = [0] * (ca + 1)  # gaps[1..ca]; gaps[0] = 0 bounds the first

        def gen(t: int, p: int, left: int, word: str) -> None:
            if t == ca:  # the last gap takes what is left
                reps.append(word + pieces[left])
                return
            # the gaps after t get what gap t leaves: each at least the
            # first, the next at least the gap a period back.  Less ends in
            # no necklace, and so does exactly that for the last gap unless
            # the period divides ca, so every leaf is a necklace
            prev = gaps[t] = gaps[t - p]  # the period stays p
            rest, need = left - prev, gaps[t + 1 - p] + (ca - t - 1) * gaps[1]
            if rest > need or rest == need and (t + 1 < ca or ca % p == 0):
                gen(t + 1, p, rest, word + pieces[prev])
            # a greater gap makes the period t: the first gap is the least
            # of ca, and a last gap equal to the first is no necklace
            top = left // ca if t == 1 else left - (ca - t) * gaps[1] - (t + 1 == ca)
            for g in range(prev + 1, top + 1):
                gaps[t] = g
                gen(t + 1, t, left - g, word + pieces[g])

        gen(1, 1, cb, "")
        reps.sort()  # emitted in rank order, which for S < L is not ASCII's
    expected = binary_necklace_count(ca + cb, ca)
    if len(reps) != expected:
        raise AssertionError(
            f"necklace generator found {len(reps)}, Burnside says {expected}"
        )
    return reps
