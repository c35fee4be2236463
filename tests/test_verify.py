"""The brute-force suite itself stays clean on small cycles."""

from snakescroll.verify import run_verification


def test_small_cycles_are_clean():
    rep = run_verification(2, 9, omega_max=3, extended=True, completeness=True)
    assert rep.is_clean
    assert rep.passed["commutation"] > 0
    assert rep.passed["torsor simple transitivity"] > 0
    assert rep.passed["classification completeness"] == 8


def test_known_evidence_lists_populate():
    rep = run_verification(5, 5, omega_max=1)
    assert rep.is_clean
    # n=5 seed 00100 has deg(p1)=2, deg=3: same-side divisibility fails
    assert any("n=5" in line for line in rep.same_side_degree_failures)
