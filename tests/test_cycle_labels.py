"""Cycles of the step maps mod the tape period, and the labels and counts
read off them mod sigma and mod a table's size."""

from types import MethodType, SimpleNamespace

import pytest

from snakescroll.cycles import all_orbits, orbit
from snakescroll.render import ansi_table, svg_table
from snakescroll.report import orbit_report
from snakescroll.scroll import Scroll, StepTable, walk_cycles

from oracles import (
    co_successor,
    live_residues,
    relabelled,
    successor,
    vector,
    walked_counts,
    walked_labels,
)


def _labels(row: list, fold: int = 1) -> list:
    """The snake labels mod fold*P, each the least residue of its snake
    (the ids `relabelled`), of a scroll of tape period P = len(row) whose
    successor and co-successor both move tape index u by row[u mod P];
    None marks a dead residue."""
    period = len(row)
    advances = row[1:] + row[:1]  # at offset r, the advance of tape index r + 1
    live = [r for r, d in enumerate(advances) if d is not None]
    s = SimpleNamespace(
        unit=bytes(d is not None for d in advances),
        unit_live=live,
        metrics=SimpleNamespace(sigma=fold * period),
        period_cycles=walk_cycles((advances, advances), live),
    )
    s.windings = Scroll.windings.func(s)
    s.cycle_lifts = Scroll.cycle_lifts.func(s)
    s.ids = MethodType(Scroll.ids, s)
    snake, cosnake = Scroll.snake_labels.func(s)
    assert cosnake == snake
    # the ids of each map are 0, 1, ..: one per snake
    assert sorted(set(snake) - {None}) == list(range(len(set(snake) - {None})))
    return relabelled(snake)


def test_labels_are_least_cycle_members():
    # residue 0 is not live; (2 4) and (3 5) are cycles
    assert _labels([None, 0, 2, 2, -2, -2]) == [None, 1, 2, 3, 2, 3]
    assert _labels([2] * 6) == [0, 1, 0, 1, 0, 1]
    # the same advances mod 12: a cycle of winding 1 mod 6 lifts to one
    # cycle twice as long, one of winding 0 to two cycles
    assert _labels([None, 0, 2, 2, -2, -2], 2) == [None, 1, 2, 3, 2, 3] + [None, 7, 8, 9, 8, 9]
    assert _labels([2] * 6, 2) == [0, 1] * 6


def test_labels_name_each_lift_by_its_least_residue():
    # one cycle 0 -> 1 -> 2 -> 0 mod 3 whose first step advances 4: walked
    # from 0 at lifts 0, 1, 1 on the path 0, 4, 5, winding 2.  Mod 3*4 it
    # lifts to gcd(2, 4) = 2 cycles, u + 3x on the one numbered (x - lift[u])
    # mod 2: 1 and 2 lie on the cycle of 3, named 1, and 4 and 5 on that of 0
    (cycle, lift, cycles), _ = walk_cycles(([4, 1, 1], [4, 1, 1]), (0, 1, 2))
    assert (cycle, lift, cycles) == ([0, 0, 0], [0, 1, 1], [([0, 4, 5], 2)])
    assert _labels([4, 1, 1], 4) == [0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0]


@pytest.mark.parametrize(
    "row",
    [
        [1, 1, -1],  # not injective: 0 falls into the cycle (1 2)
        [1, -1, -1],  # 2 lands in an already labelled cycle
        [1, 2, None, None],  # leaves the live residues 0, 1
    ],
)
@pytest.mark.parametrize("which", [0, 1], ids=["successor", "co-successor"])
def test_non_permutations_are_rejected(row, which):
    # the broken map beside one that fixes every live residue
    live = tuple(u for u, d in enumerate(row) if d is not None)
    advances = [[None if d is None else 0 for d in row]] * 2
    advances[which] = row
    with pytest.raises(AssertionError, match="not a permutation"):
        walk_cycles(tuple(advances), live)


def test_snake_labels_match_walked_cycles():
    # oracle: the partition into snakes (co-snakes) mod sigma of every orbit
    # with n <= 16, read off the cycles mod P through the covering as ids
    # 0..alpha-1 (0..beta-1), against the steps walked mod sigma
    orbits = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            snake, cosnake = walked_labels(s, s.metrics.sigma)
            assert list(map(relabelled, s.snake_labels)) == [snake, cosnake], s.seed
            assert s.snakes == (len(set(snake) - {None}), len(set(cosnake) - {None}))
            for ids, count in zip(s.snake_labels, s.snakes):
                assert set(ids) - {None} == set(range(count)), s.seed
            orbits += 1
    assert orbits == 159


def test_lift_labels_match_walked_cycles():
    # oracle: on every orbit with n <= 13, each live tape index k mod sigma,
    # offset k - 1 = r + x*P with r on cycle i and lift q, is given the id
    # first_i + (x - q) mod g_i of that cycle's lifts; the ids partition
    # the live residues as the snakes (co-snakes) walked mod sigma do, one
    # id per lift, and the swallow orders read the same ids at the walks'
    # offsets
    orbits = 0
    for n in range(2, 14):
        for s in all_orbits(n):
            period, sigma = len(s.unit), s.metrics.sigma
            walked, reads = walked_labels(s, sigma), []
            for (cycle, lift, _), lifts, labels in zip(s.period_cycles, s.cycle_lifts, walked):
                read = [None] * sigma
                for k in range(sigma):
                    x, r = divmod((k - 1) % sigma, period)
                    if cycle[r] is not None:
                        first, g = lifts[cycle[r]]
                        read[k] = first + (x - lift[r]) % g
                assert relabelled(read) == labels, s.seed
                assert sum(g for _, g in lifts) == len(set(labels) - {None})
                reads.append(read)
            walks = s.coslither_walk[0], s.slither_walk[0]
            for order, ids, offsets in zip(s.swallow_orders, reads, walks):
                assert list(order) == [ids[(v + 1) % sigma] for v in offsets]
            orbits += 1
    assert orbits == 68


def test_ids_match_walked_cycles_below_and_past_sigma():
    # oracle: on every orbit with n <= 13, the snake (co-snake) ids of the
    # live offsets v in [-2 sigma, 2 sigma), tape indices v + 1, partition
    # them as the cycles walked mod sigma do, and run over 0..alpha-1
    # (0..beta-1).  The swallows read offsets below 0
    orbits = 0
    for n in range(2, 14):
        for s in all_orbits(n):
            sigma, bits = s.metrics.sigma, vector(s)
            offsets = [v for v in range(-2 * sigma, 2 * sigma) if bits[v % len(bits)]]
            for which, labels in enumerate(walked_labels(s, sigma)):
                ids = s.ids(which, offsets)
                assert relabelled(ids) == relabelled([labels[(v + 1) % sigma] for v in offsets])
                assert set(ids) == set(range(s.snakes[which])), s.seed
            orbits += 1
    assert orbits == 68


def test_walks_are_the_oracle_steps_from_the_first_live_offset():
    # the slither (co-slither) walk of every orbit with n <= 13 is beta
    # successor (alpha co-successor) steps from the first live offset,
    # kept as offsets t - 1
    for n in range(2, 14):
        for s in all_orbits(n):
            for (offsets, _), step, count in zip(
                (s.slither_walk, s.coslither_walk), (successor, co_successor), s.snakes[::-1]
            ):
                t, stepped = vector(s).index(1) + 1, []
                for _ in range(count):
                    stepped.append(t - 1)
                    t = step(s, t)
                assert offsets == stepped, s.seed


def test_lifted_counts_match_walked_cycles():
    # oracle for the counts lifted from the windings mod the tape period:
    # the snakes of every orbit with n <= 16 and every table with n <= 13
    # and omega <= 12 (816 tables); with them the per-orbit constants each
    # table is read from, and the table's live count and degrees as the
    # orbit report gives them
    tables = 0
    for n in range(2, 17):
        for s in all_orbits(n):
            assert s.live_count == vector(s).count(1)
            # the live residues of the unit are those with a successor advance
            assert s.unit_live == [r for r, d in enumerate(s.steps.advances[0]) if d is not None]
            snakes = s.snakes
            assert snakes == walked_counts(s, s.metrics.sigma)
            if n <= 13:
                for omega in range(1, 13):
                    size = omega * len(vector(s))
                    report = orbit_report(s, omega)
                    assert report["eta"] == len(live_residues(s, size))
                    alpha, beta = walked_counts(s, size)
                    assert (report["barAlpha"], report["barBeta"]) == (alpha, beta)
                    degrees = snakes.alpha // alpha, snakes.beta // beta
                    assert (report["degP"], report["codegP"]) == degrees
                    tables += 1
    assert tables == 816


def test_windings_reject_a_non_injective_map():
    # tape period 7, live offsets 4 and 6 (tape indices 5 and 7): send 4
    # where 6 goes, so both reach 4; the walk mod 7 raises, and so does
    # every report and rendering of a table of it
    s = orbit("00001010000")
    letters, (succ, co_succ) = s.steps
    assert s.unit_live == [4, 6] and len(s.unit) == len(succ) == 7
    s.__dict__["steps"] = StepTable(letters, ([*succ[:4], 2 + succ[6], *succ[5:]], co_succ))
    with pytest.raises(AssertionError, match="^step is not a permutation of live: from 6$"):
        s.windings
    for build in (orbit_report, ansi_table, svg_table):
        with pytest.raises(AssertionError, match="not a permutation"):
            build(s, 2)


def test_windings_reject_a_non_permuting_co_successor():
    # send live offset 4 where 6 goes under the co-successor mod 7, before
    # anything reads the windings: the labels mod sigma raise as the walk
    # mod P does, since they are read off it
    s = orbit("00001010000")
    letters, (succ, co_succ) = s.steps
    s.__dict__["steps"] = StepTable(letters, (succ, [*co_succ[:4], 2 + co_succ[6], *co_succ[5:]]))
    message = "^step is not a permutation of live: from 4$"
    with pytest.raises(AssertionError, match=message):
        s.snake_labels
    with pytest.raises(AssertionError, match=message):
        s.windings
