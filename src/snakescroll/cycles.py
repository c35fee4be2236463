"""Toggle dynamics on independent sets of the cycle graph C_n.

An independent set is stored as a string of '0'/'1' of length n, read
least vertex first; vertex indices are 1-based in the public API.  The
sweep applies the single-vertex toggles at 1, 2, ..., n in order, each
acting on the word produced by the previous one, so the test at vertex n
sees the already-updated value at vertex 1.

>>> sweep("00001010000")
'10100001010'
>>> orbit("00").rows
('00', '10', '01')
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_word(bits: str, n: int | None = None) -> None:
    if n is not None and len(bits) != n:
        raise ValueError(f"expected a word of length {n}, got {len(bits)}")
    if len(bits) < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"not a binary word: {bits!r}")


def is_independent(bits: str, n: int | None = None) -> bool:
    """True iff no two cyclically adjacent positions both hold 1."""
    _check_word(bits, n)
    m = len(bits)
    return all(not (bits[i] == "1" and bits[(i + 1) % m] == "1") for i in range(m))


def _require_independent(bits: str) -> None:
    # The toggle maps are only defined on independent sets; reject the rest.
    if not is_independent(bits):
        raise ValueError(f"not an independent set of C_{len(bits)}: {bits!r}")


def eca1_local(a: int, b: int, c: int) -> int:
    """Local rule of elementary cellular automaton 1: NOR of the window."""
    return 1 if (a, b, c) == (0, 0, 0) else 0


def toggle(bits: str, k: int) -> str:
    """Attempt to flip vertex k (1-based); adds only when both neighbors are 0."""
    _require_independent(bits)
    n = len(bits)
    if not 1 <= k <= n:
        raise ValueError(f"vertex index {k} out of range 1..{n}")
    i = k - 1
    left, mid, right = bits[i - 1], bits[i], bits[(i + 1) % n]
    new = eca1_local(int(left), int(mid), int(right))
    if int(mid) == new:
        return bits
    return bits[:i] + str(new) + bits[i + 1 :]


def sweep(bits: str) -> str:
    """One full pass of toggles at vertices 1..n on the evolving word."""
    _require_independent(bits)
    n = len(bits)
    word = list(bits)
    for i in range(n):
        window = (int(word[i - 1]), int(word[i]), int(word[(i + 1) % n]))
        word[i] = str(eca1_local(*window))
    return "".join(word)


@dataclass(frozen=True)
class Orbit:
    """The sweep iterates of a seed until first return."""

    rows: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def m(self) -> int:
        return len(self.rows)


def orbit(bits: str) -> Orbit:
    _require_independent(bits)
    rows = [bits]
    cur = sweep(bits)
    while cur != bits:
        rows.append(cur)
        cur = sweep(cur)
    return Orbit(tuple(rows))


def enumerate_independent_sets(n: int) -> list[str]:
    """All independent sets of C_n in lexicographic order, by backtracking.

    Branch on v_1; along the path only the previous bit constrains the
    next, and the final bit must also respect the wrap edge to v_1.
    """
    if n < 2:
        raise ValueError("cycle graphs need at least 2 vertices")
    out: list[str] = []

    def extend(prefix: list[str]) -> None:
        i = len(prefix)
        if i == n:
            if not (prefix[0] == "1" and prefix[-1] == "1"):
                out.append("".join(prefix))
            return
        for b in "01":
            if b == "1" and prefix[i - 1] == "1":
                continue
            prefix.append(b)
            extend(prefix)
            prefix.pop()

    for first in "01":
        extend([first])
    return out


def all_orbits(n: int) -> list[Orbit]:
    """Partition of all independent sets of C_n into sweep orbits."""
    seen: set[str] = set()
    parts: list[Orbit] = []
    for bits in enumerate_independent_sets(n):
        if bits in seen:
            continue
        o = orbit(bits)
        seen.update(o.rows)
        parts.append(o)
    return parts
