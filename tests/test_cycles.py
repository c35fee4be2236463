"""Sweep dynamics on independent sets: toggles, orbits, enumeration."""

import pytest

from snakescroll.cycles import (
    all_orbits,
    enumerate_independent_sets,
    eca1_local,
    is_independent,
    orbit,
    sweep,
    toggle,
)

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
    with pytest.raises(ValueError):
        is_independent("1010", n=5)


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
    assert orbit("00").rows == ("00", "10", "01")


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


def test_all_orbits_partition():
    for n in range(2, 10):
        seen = []
        for o in all_orbits(n):
            seen.extend(o.rows)
        assert sorted(seen) == enumerate_independent_sets(n)
