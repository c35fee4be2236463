"""Cycle labels of a permutation: the partition behind snakes and ouroboroi."""

from types import SimpleNamespace

import pytest

from snakescroll.cycles import all_orbits
from snakescroll.scroll import Partition, Scroll, scroll_from_seed, walk_cycles
from snakescroll.tables import omega_table


def _advances_scroll(row: list) -> SimpleNamespace:
    """A scroll of tape period len(row) whose successor and co-successor
    both move residue u by row[u]; None marks a dead residue."""
    live = bytes(d is not None for d in row)
    return SimpleNamespace(
        metrics=SimpleNamespace(T_tape=len(row)),
        period_advances=(row, row),
        reads=lambda length: live * (length // len(row)),
    )


def _labels(row: list, fold: int = 1) -> list:
    """The snake labels of the partition mod fold*len(row)."""
    part = Partition(_advances_scroll(row), fold * len(row), 0, 0)
    assert part.cosnake_label == part.snake_label
    return part.snake_label


def test_labels_are_least_cycle_members():
    # residue 0 is not live; (2 4) and (3 5) are cycles
    assert _labels([None, 0, 2, 2, -2, -2]) == [None, 1, 2, 3, 2, 3]
    assert _labels([2] * 6) == [0, 1, 0, 1, 0, 1]
    # the same advances mod 12: a cycle of winding 1 mod 6 lifts to one
    # cycle twice as long, one of winding 0 to two cycles
    assert _labels([None, 0, 2, 2, -2, -2], 2) == [None, 1, 2, 3, 2, 3] + [None, 7, 8, 9, 8, 9]
    assert _labels([2] * 6, 2) == [0, 1] * 6


@pytest.mark.parametrize(
    "row",
    [
        [1, 1, -1],  # not injective: 0 falls into the cycle (1 2)
        [1, -1, -1],  # 2 lands in an already labelled cycle
        [1, 2, None, None],  # leaves the live residues 0, 1
    ],
)
@pytest.mark.parametrize("fold", [1, 3])
def test_non_permutations_are_rejected(row, fold):
    with pytest.raises(AssertionError, match="not a permutation"):
        _labels(row, fold)


def _walked_labels(s, modulus):
    """Least member of each cycle of successor and co-successor on the live
    residues mod modulus, by walking the tape steps; None on dead residues."""
    size = len(s.vector)
    live = [r for r in range(modulus) if s.vector[(r - 1) % size]]
    labels = []
    for step in (s.successor, s.co_successor):
        label = [None] * modulus
        for r in live:
            cycle, t = [r], step(r) % modulus
            while t != r:
                cycle.append(t)
                t = step(t) % modulus
            label[r] = min(cycle)
        labels.append(label)
    return labels


def _assert_labels_walked(s, part):
    snake, cosnake = _walked_labels(s, part.modulus)
    assert part.snake_label == snake
    assert part.cosnake_label == cosnake
    assert part.alpha == len(set(snake) - {None})
    assert part.beta == len(set(cosnake) - {None})


def test_labels_match_walked_cycles():
    # oracle: every snake partition with n <= 16 and every table partition
    # with n <= 10 and omega <= 4, against the steps walked cycle by cycle
    orbits = [Scroll(o) for n in range(2, 17) for o in all_orbits(n)]
    assert len(orbits) == 159
    tables = 0
    for s in orbits:
        _assert_labels_walked(s, s.snakes)
        if s.n <= 10:
            for omega in range(1, 5):
                _assert_labels_walked(s, omega_table(s, omega).ouroboroi)
                tables += 1
    assert tables == 4 * sum(len(all_orbits(n)) for n in range(2, 11))


def _walked_counts(s, modulus):
    """Number of cycles of successor and co-successor on the live residues
    mod modulus, walking the tape steps from each residue not yet seen."""
    size = len(s.vector)
    live = [r for r in range(modulus) if s.vector[(r - 1) % size]]
    counts = []
    for step in (s.successor, s.co_successor):
        seen, cycles = set(), 0
        for r in live:
            if r in seen:
                continue
            cycles, t = cycles + 1, r
            while t not in seen:
                seen.add(t)
                t = step(t) % modulus
            assert t == r  # a permutation closes each cycle at its start
        counts.append(cycles)
    return tuple(counts)


def test_lifted_counts_match_walked_cycles():
    # oracle for the counts lifted from the windings mod the tape period:
    # every snake partition with n <= 16 and every table with n <= 13 and
    # omega <= 12 (816 tables); with them the per-orbit constants each
    # table is built from, and the table's live count and degrees
    tables = 0
    for n in range(2, 17):
        for o in all_orbits(n):
            s = Scroll(o)
            assert s.live_count == s.vector.count(1)
            succ = s.period_advances[0]
            on_period = [t for t, d in enumerate(succ) if d is not None]
            assert s.period_live == (on_period[0], len(on_period))
            part = s.snakes
            assert (part.alpha, part.beta) == _walked_counts(s, part.modulus)
            if n <= 13:
                for omega in range(1, 13):
                    t = omega_table(s, omega)
                    tab = t.ouroboroi
                    assert (tab.modulus, tab.alpha, tab.beta) == (t.size, t.alpha, t.beta)
                    assert t.eta == len(tab.live)
                    alpha, beta = _walked_counts(s, t.size)
                    assert (t.alpha, t.beta) == (alpha, beta)
                    assert (t.deg, t.codeg) == (part.alpha // alpha, part.beta // beta)
                    tables += 1
    assert tables == 816


def _live(s, modulus):
    """The live residues mod modulus, ascending."""
    return tuple(r for r in range(modulus) if s.vector[(r - 1) % len(s.vector)])


def test_windings_reject_a_non_injective_map():
    # tape period 7, live residues 0 and 5: send 0 where 5 goes, so both
    # reach 0; the walk mod 7 raises, as the walk mod a table size does
    s = scroll_from_seed("00001010000")
    succ, co_succ = s.period_advances
    assert [t for t, d in enumerate(succ) if d is not None] == [0, 5]
    assert s.metrics.T_tape == len(succ) == 7
    s.__dict__["period_advances"] = [5 + succ[5], *succ[1:]], co_succ
    with pytest.raises(AssertionError, match="not a permutation"):
        s.windings
    size = 2 * len(s.vector)  # the omega = 2 table, which lifts its counts when built
    with pytest.raises(AssertionError, match="not a permutation"):
        walk_cycles(s, size, _live(s, size))
    with pytest.raises(AssertionError, match="not a permutation"):
        omega_table(s, 2)


def test_windings_reject_a_non_permuting_co_successor():
    # send live residue 0 where 5 goes under the co-successor mod 7, before
    # anything reads the windings: the walk mod T raises as the walk mod
    # sigma, where the labels are read, does
    s = scroll_from_seed("00001010000")
    succ, co_succ = s.period_advances
    s.__dict__["period_advances"] = succ, [5 + co_succ[5], *co_succ[1:]]
    message = "^step is not a permutation of live: from 0$"
    with pytest.raises(AssertionError, match=message):
        walk_cycles(s, s.metrics.sigma, _live(s, s.metrics.sigma))
    with pytest.raises(AssertionError, match=message):
        s.windings
