"""The scroll as one flat ticker tape: step maps, snakes and their cycles.

A `Scroll` is the one record of a sweep orbit: the least cyclic period of
its tape, X_1..X_P as 0/1 bytes (`unit`), and n.  `cycles.orbit` and
`cycles.all_orbits` build it from any period of the tape, which it cuts
to the least one, so a tape given twice is the same scroll; its m rows,
its seed and every value below are read off those two fields on first use
and kept in the instance.

The scroll stacks the orbit's rows cyclically, and the ticker tape X_t
is its row-major reading.  Cell (i, j) of the scroll, for any integer row
i and column j, is tape index t = i*n + j; this is the cylinder
identification, under which (i, j+n) and (i+1, j) are the same cell.  So
the tape alone is the scroll: X_t = unit[(t - 1) % P], and the
m*n = lcm(P, n) residues of the orbit are the unit repeated.  Its live
residues, those r with X_(r+1) live, are listed once (`Scroll.unit_live`)
and read by every builder and law that visits them.  A shift of the tape
by d is one rotation of the unit (`rotations`), and a window of it the
unit cycled and cut, so no reader counts repetitions of the unit.

Each step map (successor, co-successor and their inverses) moves a live
index t to the one live index among two candidates.  Which candidate is
live depends only on t mod P, so each map is stored as one letter and one
signed advance per residue of the unit, and each direction keeps its two
maps as one `StepTable` of letters and advances: `Scroll.steps` for the
successor and co-successor, `Scroll.inverse_steps` for their inverses.  A
direction's table is built in one pass (`_steps`): the unit and its four
rotations by the letters' advances, summed bytewise into one integer with
one bit per candidate, give one code byte per residue, two byte
translations read both maps' letters off it, and the letters are mapped to
their advances through one table per direction fixed by n, built once per
n (`slither.step_advances`).  A step at t reads its letter and advance at
(t - 1) mod P, and a live t with no unique letter has one error, its
step's (`Scroll.not_unique`).  Only the laws of `verify` read the inverse
steps, so a scroll that is only rendered or reported never builds them.

Snakes and co-snakes are the cycles of the successor and co-successor
mod sigma, the advance of a full slither, and ouroboroi those mod the size
omega*m*n of an orbit table: both maps commute with shifts by any multiple
M of P, so they descend to the residues mod M.  Each scroll walks its two
maps once, mod P, on the offsets r = t - 1 its steps read (`walk_cycles`,
read as `Scroll.period_cycles`), stepping a live residue r by its step
advance: per live residue it gives its cycle and its lift, per cycle the
path it walked and its winding.  Every cycle mod M is read off those
cycles through the covering map Z/M -> Z/P, and so is the walk of one
slither (co-slither) from the first live offset, its offsets t - 1 and
letters, kept once per scroll (`Scroll.slither_walk`,
`Scroll.coslither_walk`) for the simulation laws, the swallows and the
orbit report: cycle 0 of each map passes through that offset, and the
walk is its path read round, each lap adding the winding times P.
Besides `walk_cycles`, only the free-affine-action and torsor laws of
`verify` step a forward map.

A cycle of a map mod P whose advances sum to w*P lifts to gcd(w, M/P)
cycles mod M: the map commutes with the shift by P, so going once round
the cycle moves each point of its fibre, a coset of P*Z/M*Z, by w*P, and
the fibre splits into the gcd(w, M/P) orbits of that translation.  So the
counts at any M are sums of gcds of the windings (`lifted_counts`).  The
same covering places each point mod M on its cycle of each map: r + x*P,
r < P with lift q on cycle i of winding w, lies on the lift numbered
(x - q) mod gcd(w, M/P).  Snake (co-snake) (i, y) is named by its id,
the first id of cycle i plus y (`Scroll.cycle_lifts`), so each map's ids
run over 0..alpha-1 (0..beta-1), and `Scroll.snakes`, (alpha, beta), is
read off the last cycle of each.  One method reads an offset's id through
the covering (`Scroll.ids`): the swallows read it at the walks' offsets
and below them, the near-row law of `verify` at the offsets of a row
span, and the renderers alone spread it over the sigma residues
(`Scroll.snake_labels`).  The torsor laws of `verify` walk only the
successor mod M, stepping an offset v by the advance at v mod P, and read
the co-successor orbits off the cycles mod P; its laws on snakes and
co-snakes mod sigma read both off the cycles mod P and run on the live
residues of the unit alone.  No law builds anything of size M.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from itertools import accumulate, compress, cycle, islice
from math import gcd, lcm
from typing import NamedTuple

from .cyclic import least_period
from .slither import ScrollMetrics, metrics_from_row, step_advances

_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 bytes to "0"/"1" characters


class cached_property(functools.cached_property):
    """A value computed on its first read and kept in the instance dict.

    The stdlib descriptor takes a lock on every first read on Python 3.10
    and 3.11 (about 1.3 us a read against 0.5 us for this one, Python 3.11
    on a 2-core Xeon); this one reads as 3.12 does: compute, store, return.
    A builder that raises stores nothing.  It stays an instance of the
    stdlib class, so `.func` and values set through `vars(instance)` work
    as before.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


DEAD = "."  # step letter of a dead residue
# The code byte of a residue is 16*(residue live) + 8*(E candidate live) +
# 4*(D candidate live) + 2*(S candidate live) + (L candidate live).  Per
# map, a translation table from the code byte to its step letter, reading
# the bits of the map's two candidates (shift 2: E and D, shift 0: S and L)
_LETTER_OF = tuple(
    bytes(
        ord((DEAD * 4 + "0" + pair[1] + pair[0] + "2")[4 * (code >> 4) + (code >> shift & 3)])
        for code in range(32)
    ).ljust(256, DEAD.encode())
    for pair, shift in (("ED", 2), ("SL", 0))
)


class SnakeCounts(NamedTuple):
    alpha: int  # snakes: cycles of the successor mod sigma
    beta: int  # co-snakes: cycles of the co-successor mod sigma


class StepTable(NamedTuple):
    """Both maps of one direction, per residue of the unit: the successor
    (predecessor) first, then the co-successor (co-predecessor)."""

    letters: tuple[str, str]  # the step letter; DEAD, or a count of live candidates
    advances: tuple[list, list]  # its signed tape advance, None where it has none


def rotations(unit: bytes) -> Callable[[int], int]:
    """d -> the unit rotated by d mod P = len(unit), as one integer with one
    0/1 byte per residue: byte r (from the high end) is X_(r + 1 + d).  The
    tape is P-periodic, so this is X_(t + d) for t in [1, P], read as P
    bytes of the unit repeated twice."""
    period, mask = len(unit), (1 << 8 * len(unit)) - 1
    twice = int.from_bytes(unit * 2, "big")
    return lambda d: twice >> 8 * (period - d % period) & mask


def _steps(unit: bytes, advance: dict[str, int]) -> StepTable:
    """The step table of both maps of one direction on the tape's least
    cyclic period, unit, given the signed advance of each letter in that
    direction (`slither.step_advances`): the successor and co-successor,
    or their inverses.

    The candidates of a live residue r are r + advance[letter] for each
    letter.  A dead residue gets DEAD; a live one gets its live
    candidate's letter, or, when not exactly one of its map's two
    candidates is live, the digit counting them.  Each candidate is read
    from the unit rotated by its advance (`rotations`), and the five 0/1
    bytes of a residue are summed into one code byte as integers (no byte
    carries), so one integer holds both maps' candidates; the letters of
    all m*n residues are these tables repeated.  Each letter's advance is
    read off advance, None for DEAD and the digits.
    """
    rotated = rotations(unit)
    code = rotated(0) * 16
    for weight, letter in zip((8, 4, 2, 1), "EDSL"):
        code += rotated(advance[letter]) * weight
    codes = code.to_bytes(len(unit), "big")
    letters = tuple(codes.translate(table).decode() for table in _LETTER_OF)
    return StepTable(letters, tuple(list(map(advance.get, x)) for x in letters))


class Scroll:
    """A sweep orbit as the least period X_1..X_P of its tape, as 0/1 bytes
    (`unit`), and n: its m rows are the first lcm(P, n) symbols.  It is
    made from any period of the tape and keeps only the least one.

    Two scrolls are equal and hash alike when their units and n are.
    Every builder below keeps its value in the instance dict, read off
    unit and n, so neither may be set or deleted once the scroll is made.
    """

    def __init__(self, period: bytes, n: int) -> None:
        vars(self).update(unit=period[: least_period(period)], n=n)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a Scroll is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and (self.unit, self.n) == (other.unit, other.n)

    def __hash__(self) -> int:
        return hash((self.unit, self.n))

    def __repr__(self) -> str:
        return f"Scroll(period={self.unit!r}, n={self.n!r})"

    @cached_property
    def m(self) -> int:
        return lcm(len(self.unit), self.n) // self.n

    @cached_property
    def size(self) -> int:
        """m*n, the residues of the orbit: one table's worth per omega."""
        return self.m * self.n

    @cached_property
    def seed(self) -> str:
        """The first row: X_1..X_n, read by the reports and by the orbit's
        name in `verify`."""
        return bytes(islice(cycle(self.unit), self.n)).translate(_CHARS).decode()

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """The m rows as words, for callers that print or compare them."""
        n, unit = self.n, self.unit
        tape = (unit * (self.size // len(unit))).translate(_CHARS).decode()
        return tuple(tape[i : i + n] for i in range(0, len(tape), n))

    @cached_property
    def metrics(self) -> ScrollMetrics:
        """Metrics of the length-n tape window from the first live entry."""
        n, start = self.n, self.unit_live[0]
        window = bytes(islice(cycle(self.unit), start, start + n))
        return metrics_from_row(window.translate(_CHARS).decode(), n)

    @cached_property
    def live_count(self) -> int:
        """Live entries of the m*n residues, counted on the least period."""
        return self.unit.count(1) * (self.size // len(self.unit))

    @cached_property
    def fundamental_degrees(self) -> tuple[int, int]:
        """(deg p_1, codeg p_1), the covering degrees onto the omega = 1 table:
        a snake is p-periodic (no shorter shift fixes it), so read mod m*n it
        winds p / gcd(p, m*n) times around the table; a co-snake likewise, q."""
        met, size = self.metrics, self.size
        return met.p // gcd(met.p, size), met.q // gcd(met.q, size)

    @cached_property
    def unit_live(self) -> list[int]:
        """The residues r of the unit whose entry X_(r+1) is live, ascending:
        listed once, for `steps_are_maps`, the metrics window, the cycles
        and the laws of `verify`."""
        unit = self.unit
        return list(compress(range(len(unit)), unit))

    @cached_property
    def steps(self) -> StepTable:
        """The successor and co-successor per residue of the unit, letters
        and advances from one pass (`_steps`)."""
        return _steps(self.unit, step_advances(self.n)[0])

    @cached_property
    def inverse_steps(self) -> StepTable:
        """Likewise the predecessor and co-predecessor, whose advances are
        negative; only the laws read them."""
        return _steps(self.unit, step_advances(self.n)[1])

    @cached_property
    def steps_are_maps(self) -> bool:
        """Whether all four steps are maps of the live entries: every live
        residue of the unit has an advance in each table, and it lands on a
        live residue."""
        unit, live = self.unit, self.unit_live
        size = len(unit)
        for row in self.steps.advances + self.inverse_steps.advances:
            for r in live:
                d = row[r]
                if d is None or not unit[(r + d) % size]:
                    return False
        return True

    @cached_property
    def snakes(self) -> SnakeCounts:
        """The numbers of snakes and co-snakes, the cycle counts of both maps
        mod sigma: per map, the first id of its last cycle mod P plus that
        cycle's number of lifts (`cycle_lifts`)."""
        return SnakeCounts(*[sum(lifts[-1]) for lifts in self.cycle_lifts])

    @cached_property
    def period_cycles(self) -> tuple[tuple[list, list, list], ...]:
        """The cycles of the successor (then co-successor) mod P = len(unit)
        (`walk_cycles`), walked on the step advances and the live residues
        of the unit.  A live residue with no advance raises its step's error
        (`not_unique`), named by its tape index in [1, P], the successor's
        before the co-successor's: the Nones of each row are counted at C
        level, and the live residues scanned only to name the first one
        that has no advance."""
        live, advances = self.unit_live, self.steps.advances
        for which, row in enumerate(advances):
            if row.count(None) > len(row) - len(live):  # no dead residue has an advance
                for r in live:
                    if row[r] is None:
                        raise self.not_unique(which, r + 1)
        return walk_cycles(advances, live)

    @cached_property
    def windings(self) -> tuple[list[int], list[int]]:
        """Per cycle of the successor (then co-successor) mod P, its summed
        advance over P."""
        return tuple([w for _, w in cycles] for *_, cycles in self.period_cycles)

    @cached_property
    def cycle_lifts(self) -> tuple[list, list]:
        """Per cycle i of the successor (then co-successor) mod P, the id of
        its first snake (co-snake) and its number of lifts mod sigma,
        g_i = gcd(w_i, sigma/P): snake (i, y), y < g_i, has id first_i + y,
        so the ids of each map run over 0..alpha-1 (0..beta-1), cycle by
        cycle.  The one definition of a snake's name: `ids`, the snake
        counts and the laws of `verify` on snakes mod sigma read it."""
        fold = self.metrics.sigma // len(self.unit)
        tables = []
        for windings in self.windings:
            lifts = [gcd(w, fold) for w in windings]
            tables.append(list(zip(accumulate(lifts, initial=0), lifts)))
        return tuple(tables)

    def ids(self, which: int, offsets: list[int]) -> list[int]:
        """The snake (which = 0) or co-snake (1) id of each live offset t - 1
        of offsets, any integer, in or out of [0, sigma): offset r + x*P,
        r < P with lift q on cycle i of that map mod P, lies on lift
        (x - q) mod g_i of the cycle, id first_i + (x - q) mod g_i
        (`cycle_lifts`).  The one reader of a snake's name through the
        covering Z/sigma -> Z/P."""
        period = len(self.unit)
        cycle, lift, _ = self.period_cycles[which]
        lifts = self.cycle_lifts[which]
        ids = []
        for v in offsets:
            r = v % period
            first, g = lifts[cycle[r]]
            ids.append(first + (v // period - lift[r]) % g)
        return ids

    @cached_property
    def snake_labels(self) -> tuple[list, list]:
        """Per tape index t mod sigma, the id of its snake (then its
        co-snake), None where dead: the id of its offset t - 1 (`ids`).
        Only the renderers read these arrays of sigma entries."""
        period = len(self.unit)
        size = self.metrics.sigma // period * period
        offsets = [r + x for x in range(0, size, period) for r in self.unit_live]
        labels = [None] * size, [None] * size
        for which, ids in enumerate(labels):
            for v, i in zip(offsets, self.ids(which, offsets)):
                ids[(v + 1) % size] = i
        return labels

    @cached_property
    def slither_walk(self) -> tuple[list[int], str]:
        """The offsets and letters of beta successor steps from the first
        live offset, read off the successor's cycle through it (`_walk`):
        a slither meets each co-snake once."""
        return self._walk(0, self.snakes.beta)

    @cached_property
    def coslither_walk(self) -> tuple[list[int], str]:
        """Likewise alpha co-successor steps: a co-slither meets each snake once."""
        return self._walk(1, self.snakes.alpha)

    @cached_property
    def swallow_orders(self) -> tuple[tuple, tuple]:
        """The snake ids at the co-slither walk's offsets, then the co-snake
        ids at the slither walk's (`ids`): each walk meets each of its
        snakes (co-snakes) once, so these are the ids in the cyclic order
        every swallow (co-swallow) permutes, whatever the table."""
        walks = self.coslither_walk, self.slither_walk
        orders = tuple([tuple(self.ids(which, walk[0])) for which, walk in enumerate(walks)])
        if any(len(set(order)) != len(order) for order in orders):
            raise AssertionError("step map does not traverse all labels once")
        return orders

    def _walk(self, step: int, count: int) -> tuple[list[int], str]:
        """The offsets t - 1 and letters of count steps of the successor
        (step 0) or co-successor (1) from the first live offset, read off
        that map's cycle 0 mod P (`period_cycles`), the cycle through the
        first live offset, where its walk starts: with path p of l offsets
        and winding w, offset k is p[k mod l] + (k // l)*w*P, and its letter
        the step letter at that offset mod P.  Nothing is stepped: a walk
        longer than l runs round the cycle again, one winding further on
        the tape.  Both walks read `snakes` for their count first, and its
        cycles raise on a live residue without an advance and on a step
        onto a dead one, so every letter read is a step letter."""
        path, w = self.period_cycles[step][2][0]
        letters, lap = self.steps.letters[step], len(path)
        offsets = [path[k % lap] + k // lap * w * len(letters) for k in range(count)]
        return offsets, "".join([letters[v % len(letters)] for v in offsets])

    def not_unique(self, which: int, t: int) -> AssertionError:
        """The error of the successor (which = 0) or co-successor (1) at the
        live tape index t, any integer, whose letter at (t - 1) mod P is the
        digit counting its live candidates, not exactly one: the one
        message of a step with no unique letter, which `period_cycles` and
        `render.svg_table` raise and the unique-candidates law of `verify`
        reports."""
        letters = self.steps.letters[which]
        what, letter = ("successor", "co-successor")[which], letters[(t - 1) % len(letters)]
        return AssertionError(f"{what} of live index {t}: {letter} live candidates, expected 1")


def walk_cycles(
    advances: tuple[list, list], live: list[int]
) -> tuple[tuple[list, list, list], ...]:
    """The cycles of the successor (then co-successor) mod P, each map given
    by its advance per residue r = t - 1 of the unit (`Scroll.steps`)
    and walked once on live, the live residues in ascending order.  Three
    arrays (cycle, lift, cycles) per map.

    For a live r in [0, P), r is on cycle cycle[r], k steps from that
    cycle's least member r0, and r0 + A_k = r + lift[r]*P, A_k the summed
    advance of those k steps; both are None where r is dead.  cycles[i] is
    the path and the winding of cycle i: its path the offsets r0 + A_k in
    walk order, one per member, and its winding its summed advance over P.
    Cycles are numbered by their least members, ascending.  A map that does
    not permute the live residues raises.
    """
    walks = []
    for row in advances:
        period = len(row)
        cycle, lift, cycles = [None] * period, [None] * period, []
        for start in live:
            if cycle[start] is not None:
                continue
            i, u, d, path = len(cycles), start, row[start], []
            v = start  # r0 + A_k
            while True:
                cycle[u], lift[u] = i, v // period
                path.append(v)
                v += d
                u = v % period
                if u == start:
                    break
                d = row[u]
                if d is None or cycle[u] is not None:  # None: a dead residue
                    raise AssertionError(f"step is not a permutation of live: from {start}")
            cycles.append((path, (v - start) // period))
        walks.append((cycle, lift, cycles))
    return tuple(walks)


def lifted_counts(s: Scroll, fold: int) -> tuple[int, int]:
    """The cycle counts of the successor and co-successor of s mod fold*P,
    P = len(s.unit): each cycle mod P of winding w lifts to gcd(w, fold).
    Plain loops: a map over a few windings costs twice as much to set up."""
    succ, co_succ = s.windings
    alpha = beta = 0
    for w in succ:
        alpha += gcd(w, fold)
    for w in co_succ:
        beta += gcd(w, fold)
    return alpha, beta
