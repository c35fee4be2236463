"""Oracles the tests check library code against, kept apart from that code."""

from math import gcd

from snakescroll.scroll import Partition
from snakescroll.tables import OrbitTable


def map_torsor(part: Partition, outer: int, inner: int) -> bool:
    """Whether s^a c^b (a < outer, b < inner) moves the first live residue
    of part onto each live residue once, s and c its reduced maps.

    Oracle for verify._is_torsor, which walks only s and reads the c-orbits
    mod M off the scroll's cycles mod the tape period instead: this walk
    visits every image, on the partition's live residues and its reduced
    maps mod M alone.
    """
    (s, c), live = part.maps, part.live
    if outer * inner != len(live):
        return False
    seen, cur = set(), live[0]
    for _ in range(outer):
        val = cur
        for _ in range(inner):
            if val in seen:
                return False
            seen.add(val)
            val = c[val]
        cur = s[cur]
    return True


def permutation_group_invariants(t: OrbitTable) -> tuple[int, ...]:
    """Nontrivial invariant factors of the group the reduced maps generate.

    Oracle for group_invariants: it reads only the table partition's live
    residues and its two reduced maps s (successor) and c (co-successor).
    Commuting maps whose group is transitive on the live entries act simply
    transitively, so the group is Z^2 modulo the stabiliser lattice of t0.
    With l the length of the c-orbit of t0 and s^k(t0) = c^j(t0) for the least
    k > 0, that lattice has basis (0, l), (k, -j) and index k*l = eta.
    """
    tab = t.ouroboroi
    live, (s, c) = tab.live, tab.maps
    for x in live:
        if s[c[x]] != c[s[x]]:
            raise AssertionError(f"successor and co-successor do not commute at {x}")
    t0 = live[0]
    c_index: dict[int, int] = {}
    x = t0
    while x not in c_index:
        c_index[x] = len(c_index)
        x = c[x]
    if x != t0:
        raise AssertionError("co-successor does not return to t0")
    ell = len(c_index)
    x, k = s[t0], 1
    while x not in c_index:
        if k == len(live):
            raise AssertionError("successor does not return to the c-orbit of t0")
        x, k = s[x], k + 1
    j = c_index[x]
    if k * ell != len(live):
        raise AssertionError(f"the group moves t0 to {k * ell} of {len(live)} entries")
    d1 = gcd(ell, k, j)
    return tuple(d for d in (d1, k * ell // d1) if d > 1)
