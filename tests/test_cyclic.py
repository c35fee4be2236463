"""Rotation helpers: canonical forms, least periods."""

from snakescroll.cyclic import (
    canonical,
    cyclically_equal,
    exponent,
    least_period,
    rotations,
)


def test_rotations():
    assert rotations("abc") == ["abc", "bca", "cab"]


def test_canonical_orders_d_before_e():
    assert canonical("EDEDED") == "DEDEDE"
    assert canonical("EEEDDD") == "DDDEEE"


def test_canonical_orders_s_before_l():
    # letter order S < L disagrees with ASCII
    assert canonical("LLSS") == "SSLL"
    assert canonical("LSLS") == "SLSL"
    assert canonical("LS") == "SL"


def test_canonical_binary_words():
    assert canonical("10100001010") == "00001010101"


def test_canonical_is_a_fixed_point():
    for w in ("DDEDE", "SLLSL", "0010010"):
        assert canonical(canonical(w)) == canonical(w)
        assert canonical(w) in rotations(w)


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
