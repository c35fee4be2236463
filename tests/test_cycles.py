"""Sweep dynamics on independent sets: toggles, orbits, enumeration."""

import pytest

from snakescroll.cycles import (
    _independent_words,
    _tape_states,
    all_orbits,
    enumerate_independent_sets,
    is_independent,
    orbit,
)
from snakescroll.scroll import Scroll

from oracles import eca1_local, sweep, toggle, vector

LUCAS = {2: 3, 3: 4, 4: 7, 5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123}


def test_eca1_local_is_nor():
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert eca1_local(a, b, c) == (1 if a == b == c == 0 else 0)


def test_is_independent_wrap_edge():
    assert is_independent("1010")
    assert not is_independent("1001")  # adjacent across the wrap
    assert not is_independent("0110")
    assert is_independent("0000")


def test_is_independent_rejects_bad_input():
    with pytest.raises(ValueError):
        is_independent("102")
    with pytest.raises(ValueError):
        is_independent("1")


def test_toggle_removal_and_addition():
    assert toggle("0100", 2) == "0000"
    assert toggle("0000", 2) == "0100"
    # blocked addition: a live neighbor
    assert toggle("0100", 3) == "0100"
    assert toggle("0100", 1) == "0100"


def test_toggle_is_an_involution():
    for bits in enumerate_independent_sets(7):
        for k in range(1, 8):
            assert toggle(toggle(bits, k), k) == bits


def test_toggle_rejects_dependent_sets():
    with pytest.raises(ValueError):
        toggle("1100", 1)
    with pytest.raises(ValueError):
        toggle("0100", 0)


def test_sweep_running_example():
    assert sweep("00001010000") == "10100001010"


def test_sweep_sees_updated_first_bit():
    # vertex n is tested against the already-toggled vertex 1
    assert sweep("00") == "10"
    assert sweep("10") == "01"
    assert sweep("01") == "00"


def test_sweep_preserves_independence():
    for n in range(2, 9):
        for bits in enumerate_independent_sets(n):
            assert is_independent(sweep(bits))


def test_sweep_is_a_bijection():
    for n in range(2, 9):
        words = enumerate_independent_sets(n)
        assert len({sweep(b) for b in words}) == len(words)


def test_orbit_smallest_cycle():
    o = orbit("00")
    assert o == Scroll(bytes([0, 0, 1]), 2)  # the tape 001001...: T = 3
    assert (o.m, o.seed, o.rows) == (3, "00", ("00", "10", "01"))


def test_orbit_running_example_length():
    o = orbit("00001010000")
    assert o.m == 7
    assert o.n == 11
    assert len(set(o.rows)) == 7


def test_enumerate_counts_match_lucas_numbers():
    for n, expected in LUCAS.items():
        words = enumerate_independent_sets(n)
        assert len(words) == expected
        assert words == sorted(words)
        assert all(is_independent(w) for w in words)
    # brute force: every n-bit word with no two cyclically adjacent 1s
    for n in range(2, 13):
        every = (format(i, f"0{n}b") for i in range(2**n))
        assert enumerate_independent_sets(n) == [w for w in every if "11" not in w + w[0]]


def test_independent_words_match_the_filtered_construction():
    # the words of n bits with no two adjacent 1s, from the linear
    # recurrence, less those with both end bits set (the wrap edge)
    for n in range(2, 21):
        shorter, words = [0], [0, 1]
        for k in range(2, n + 1):
            shorter, words = words, words + [1 << (k - 1) | x for x in shorter]
        ends = 1 << (n - 1) | 1
        assert _independent_words(n) == [w for w in words if w & ends != ends], n


def test_all_orbits_partition():
    for n in range(2, 17):
        seen = []
        for o in all_orbits(n):
            seen.extend(o.rows)
        assert sorted(seen) == enumerate_independent_sets(n)


def _swept_rows(bits):
    """The orbit of bits by iterating the string sweep itself."""
    rows = [bits]
    cur = sweep(bits)
    while cur != bits:
        rows.append(cur)
        cur = sweep(cur)
    return tuple(rows)


def test_bitmask_sweep_matches_sweep():
    # the tape recurrence on n-bit states: from each independent set, n
    # steps give its sweep, and the state first returns after the least
    # period of its swept orbit's rows joined into one cyclic tape
    for n in range(2, 15):
        period_of = {}
        for bits in enumerate_independent_sets(n):
            if bits not in period_of:
                rows = _swept_rows(bits)
                tape = "".join(rows)
                period_of.update(dict.fromkeys(rows, (tape * 2).find(tape, 1)))
            states = _tape_states(int(bits, 2), n)
            assert len(states) == period_of[bits], bits
            assert format(states[n % len(states)], f"0{n}b") == sweep(bits)


def test_all_orbits_are_simulated_orbits():
    # an orbit is one tape period: its seed and the scroll's vector, derived
    # from it, are the first row and the rows joined
    for n in range(2, 17):
        for o in all_orbits(n):
            assert o.seed == o.rows[0]
            assert o.rows == _swept_rows(o.seed)
            assert vector(o) == bytes(int(c) for c in "".join(o.rows))
            assert o == orbit(o.seed)


def test_orbit_rejects_bad_seeds():
    for bits in ("1", "102", "0110"):
        with pytest.raises(ValueError):
            orbit(bits)
