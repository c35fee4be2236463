"""Randomized invariants over independent sets and cyclic words."""

from hypothesis import given, settings
from hypothesis import strategies as st

from snakescroll.cycles import is_independent, orbit
from snakescroll.cyclic import canonical_binary, cyclically_equal, least_period

from oracles import relabelled, sweep, toggle, vector, walked_labels


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
    s = orbit(bits)
    live = [t for t, label in enumerate(s.snake_labels[0]) if label is not None]
    assert len(live) == s.snakes.alpha * s.snakes.beta


@given(independent_sets(min_n=17, max_n=22))
@settings(deadline=None, max_examples=20)
def test_snake_labels_match_walked_cycles_past_n16(bits):
    # past the exhaustive n <= 16 check: the snakes read off the cycles mod
    # P partition the live residues as the steps walked mod sigma do
    if "1" not in bits:
        return
    s = orbit(bits)
    assert list(map(relabelled, s.snake_labels)) == walked_labels(s, s.metrics.sigma)


@given(independent_sets(), st.integers(-50, 50), st.data())
@settings(deadline=None)
def test_tape_reads_the_cylinder(bits, i, data):
    # cell (i, j) of the scroll is tape index i*n + j
    s = orbit(bits)
    j = data.draw(st.integers(1, s.n))
    bits = vector(s)
    assert bits[(i * s.n + j - 1) % len(bits)] == int(s.rows[i % s.m][j - 1])


def rotations(word):
    """Every rotation of word: the brute-force reference for canonical_binary."""
    return [word[i:] + word[:i] for i in range(len(word))]


def test_rotations():
    assert rotations("abc") == ["abc", "bca", "cab"]


def least_rotation(word):
    return min(rotations(word))


binary_words = st.text(alphabet="01", min_size=1, max_size=40).filter(lambda w: "1" in w)


@given(binary_words)
def test_canonical_binary_represents_the_rotation_class(word):
    c = canonical_binary(word)
    assert cyclically_equal(c, word)
    assert all(canonical_binary(r) == c for r in rotations(word))


@st.composite
def wrapping_zero_runs(draw):
    """Binary words whose longest zero run wraps around the end."""
    middle = "1" + draw(st.text(alphabet="01", max_size=20)) + "1"
    inner = max(map(len, middle.split("1")))
    total = draw(st.integers(max(inner + 1, 2), inner + 10))
    head = draw(st.integers(1, total - 1))
    return "0" * head + middle + "0" * (total - head)


@given(
    st.one_of(
        binary_words,
        st.tuples(binary_words, st.integers(2, 6)).map(lambda p: p[0] * p[1]),
        wrapping_zero_runs(),
    )
)
def test_canonical_binary_is_the_least_rotation(word):
    assert canonical_binary(word) == least_rotation(word)


@given(wrapping_zero_runs())
def test_wrapping_words_wrap(word):
    runs = word.split("1")
    assert len(runs[0]) + len(runs[-1]) > max(map(len, runs[1:-1]))
    assert word[0] == word[-1] == "0"


@given(st.text(alphabet="SL", min_size=1, max_size=12))
def test_least_period_divides_length(word):
    d = least_period(word)
    assert len(word) % d == 0
    assert word == word[d:] + word[:d]
