"""Randomized invariants over independent sets and cyclic words."""

from hypothesis import given, settings
from hypothesis import strategies as st

from snakescroll.cycles import is_independent, orbit, sweep, toggle
from snakescroll.cyclic import canonical, cyclically_equal, least_period, rotations
from snakescroll.scroll import scroll_from_seed, snakes_and_cosnakes


@st.composite
def independent_sets(draw, min_n=2, max_n=16):
    n = draw(st.integers(min_n, max_n))
    bits = ["0"] * n
    for i in draw(st.permutations(range(n))):
        if bits[i - 1] == "0" and bits[(i + 1) % n] == "0":
            if draw(st.booleans()):
                bits[i] = "1"
    return "".join(bits)


@given(independent_sets())
def test_generated_sets_are_independent(bits):
    assert is_independent(bits)


@given(independent_sets())
def test_sweep_preserves_independence(bits):
    assert is_independent(sweep(bits))


@given(independent_sets(), st.integers(1, 16))
def test_toggle_involution(bits, k):
    k = (k - 1) % len(bits) + 1
    assert toggle(toggle(bits, k), k) == bits


@given(independent_sets(max_n=12))
@settings(deadline=None)
def test_orbit_returns_to_seed(bits):
    o = orbit(bits)
    assert sweep(o.rows[-1]) == o.rows[0] == bits
    assert len(set(o.rows)) == o.m


@given(independent_sets(max_n=11))
@settings(deadline=None, max_examples=40)
def test_window_size_is_alpha_beta(bits):
    if "1" not in bits:
        return
    part = snakes_and_cosnakes(scroll_from_seed(bits))
    assert len(part.window) == part.alpha * part.beta


@given(independent_sets(), st.integers(-50, 50), st.data())
@settings(deadline=None)
def test_tape_reads_the_cylinder(bits, i, data):
    # cell (i, j) of the scroll is tape index i*n + j
    s = scroll_from_seed(bits)
    j = data.draw(st.integers(1, s.n))
    assert s.tape(i * s.n + j) == int(s.base.rows[i % s.m][j - 1])


@given(st.text(alphabet="DE", min_size=1, max_size=12))
def test_canonical_represents_the_rotation_class(word):
    c = canonical(word)
    assert cyclically_equal(c, word)
    assert all(canonical(r) == c for r in rotations(word))


@given(st.text(alphabet="SL", min_size=1, max_size=12))
def test_least_period_divides_length(word):
    d = least_period(word)
    assert len(word) % d == 0
    assert word == word[d:] + word[:d]
