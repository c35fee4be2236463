"""Rotation helpers: canonical forms, least periods."""

import pytest

from snakescroll.cyclic import (
    canonical_binary,
    cyclically_equal,
    exponent,
    least_period,
)


def test_canonical_binary_starts_at_a_longest_zero_run():
    assert canonical_binary("10100001010") == "00001010101"
    assert canonical_binary("0010100") == "0000101"  # the run wraps around
    assert canonical_binary("100100") == "001001"
    assert canonical_binary("111") == "111"
    for word in ("", "0000"):
        with pytest.raises(ValueError):
            canonical_binary(word)


def test_canonical_binary_of_periodic_words():
    # powers of a shorter block: every period offers a tied least start
    cases = {
        "0101": "0101",
        "1010": "0101",
        "001001": "001001",
        "100100": "001001",
        "010010": "001001",
        "1": "1",
    }
    for word, least in cases.items():
        assert canonical_binary(word) == least, word


def test_canonical_binary_is_a_fixed_point():
    for w in ("0010010", "1101000", "0100101"):
        assert canonical_binary(canonical_binary(w)) == canonical_binary(w)
        assert cyclically_equal(canonical_binary(w), w)


def test_cyclically_equal():
    assert cyclically_equal("EDEDED", "DEDEDE")
    assert not cyclically_equal("EDEDED", "EEDDED")
    assert not cyclically_equal("ED", "EDED")


def test_least_period():
    assert least_period("EDEDED") == 2
    assert least_period("SS") == 1
    assert least_period("EEDDED") == 6
    assert least_period("abab") == 2
    assert least_period("aba") == 3


def test_exponent():
    assert exponent("EDEDED") == 3
    assert exponent("SS") == 2
    assert exponent("EEDDED") == 1
