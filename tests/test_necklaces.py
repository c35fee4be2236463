"""Fixed-content binary necklaces and the Burnside cross-check."""

from snakescroll.classify import feasible_quadruples
from snakescroll.necklaces import binary_necklace_count, necklaces_fixed_content

from oracles import sawada_necklaces


def test_counts_against_known_values():
    assert binary_necklace_count(4, 2) == 2
    assert binary_necklace_count(6, 3) == 4
    assert binary_necklace_count(6, 2) == 3
    assert binary_necklace_count(8, 4) == 10
    assert binary_necklace_count(5, 0) == 1
    assert binary_necklace_count(0, 0) == 1


def test_total_over_content_is_necklace_count():
    # sum over k of fixed-content counts = number of binary necklaces
    totals = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36}
    for length, expected in totals.items():
        assert (
            sum(binary_necklace_count(length, k) for k in range(length + 1))
            == expected
        )


def test_representatives_are_canonical_and_complete():
    reps = necklaces_fixed_content("D", "E", 3, 3)
    assert len(reps) == 4
    assert reps == ["DDDEEE", "DDEDEE", "DDEEDE", "DEDEDE"]


def test_sl_alphabet_uses_s_first_ordering():
    reps = necklaces_fixed_content("S", "L", 2, 2)
    assert reps == sorted(["SSLL", "SLSL"])


def _least_rotations(length: int) -> dict[int, list[str]]:
    """Least member of each rotation class of length-bit words, by zero count.

    The reference the generator replaced: every arrangement, kept when it
    is its own least rotation.  Each class is visited once, from its first
    member in counting order, and its least member is found by rotating
    the integer through the whole class; '0' ranks below '1'.  length >= 1.
    """
    by_zeros: dict[int, list[str]] = {}
    seen = bytearray(1 << length)
    for x in range(1 << length):
        if seen[x]:
            continue
        least = y = x
        while not seen[y]:
            seen[y] = 1
            least = min(least, y)
            y = (y >> 1) | ((y & 1) << (length - 1))
        word = format(least, f"0{length}b")
        by_zeros.setdefault(word.count("0"), []).append(word)
    return by_zeros


def test_generator_matches_the_arrangement_filter():
    for length in range(1, 21):
        reference = _least_rotations(length)
        for ca in range(length + 1):
            for a, b in (("D", "E"), ("S", "L")):
                letters = str.maketrans("01", a + b)
                expected = sorted(w.translate(letters) for w in reference[ca])
                got = necklaces_fixed_content(a, b, ca, length - ca)
                assert got == expected, (length, ca, a)


def test_single_letter_and_empty_contents():
    assert necklaces_fixed_content("D", "E", 0, 0) == [""]
    assert necklaces_fixed_content("S", "L", 0, 3) == ["LLL"]
    assert necklaces_fixed_content("S", "L", 3, 0) == ["SSS"]
    assert necklaces_fixed_content("D", "E", 0, 1) == ["E"]


def test_gap_generator_matches_the_letter_recursion():
    # every slither content (D/E) and co-slither content (S/L) of every
    # feasible quadruple with n <= 32, each in both alphabets
    contents = set()
    for n in range(2, 33):
        for q in feasible_quadruples(n):
            contents |= {(q.beta_d, q.beta_e), (q.alpha_s, q.alpha_l)}
    assert len(contents) == 120
    for ca, cb in sorted(contents):
        for a, b in (("D", "E"), ("S", "L")):
            assert necklaces_fixed_content(a, b, ca, cb) == sawada_necklaces(a, b, ca, cb), (ca, cb)


def test_gap_generator_matches_the_letter_recursion_at_the_edges():
    # no a (no gaps), no b (every gap 0) and one a (a single gap)
    for k in range(0, 25):
        for ca, cb in ((0, k), (k, 0), (1, k)):
            for a, b in (("D", "E"), ("S", "L")):
                got = necklaces_fixed_content(a, b, ca, cb)
                assert got == sawada_necklaces(a, b, ca, cb), (ca, cb)


def test_gap_generator_matches_the_letter_recursion_up_to_length_20():
    # every content of every length up to 20, in both alphabets
    for length in range(21):
        for ca in range(length + 1):
            for a, b in (("D", "E"), ("S", "L")):
                expected = sawada_necklaces(a, b, ca, length - ca)
                assert necklaces_fixed_content(a, b, ca, length - ca) == expected, (ca, length)
