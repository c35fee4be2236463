"""The scroll as one flat ticker tape: step maps, snakes and their cycles.

A `Scroll` is the one record of a sweep orbit: one period of its tape,
X_1..X_T as 0/1 bytes (`period`, T not necessarily the least), and n.
`cycles.orbit` and `cycles.all_orbits` build it; its m rows, its seed and
every value below are read off those two fields on first use and kept in
the instance.

The scroll stacks the orbit's rows cyclically, and the ticker tape X_t
is its row-major reading.  Cell (i, j) of the scroll, for any integer row
i and column j, is tape index t = i*n + j; this is the cylinder
identification, under which (i, j+n) and (i+1, j) are the same cell.  So
the tape alone is the scroll, and a scroll keeps one least period P of it
(`Scroll.unit`, found on `Scroll.period`): X_t = unit[(t - 1) % P],
and the m*n = lcm(P, n) residues of the orbit are the unit repeated.  Its
live residues, those r with X_(r+1) live, are listed once
(`Scroll.unit_live`) and read by every builder and law that visits them.

Each step map (successor, co-successor and their inverses) moves a live
index t to the one live index among two candidates.  Which candidate is
live depends only on t mod P, so each map is stored as one letter per
residue of the unit and as one signed advance per residue, and each
direction keeps its two maps as one pair: `Scroll.step_letters` and
`Scroll.step_advances` for the successor and co-successor,
`Scroll.inverse_letters` and `Scroll.inverse_advances` for their
inverses.  A direction's letter pair is built in one pass
(`_step_letters`): the unit and its four rotations by the letters'
advances, summed bytewise into one integer with one bit per candidate,
give one code byte per residue, and two byte translations read both
maps' letters off it.  Its advances are its letters mapped through one
table per direction fixed by n, built once per n (`slither.step_advances`).
A step at t reads its letter and advance at (t - 1) mod P.  Only the laws
of `verify` read the inverse steps, so a scroll that is only rendered or
reported builds neither their letters nor advances.  The walk of one slither
(co-slither) from the first live offset, its offsets t - 1 and letters, is
read straight off the forward tables and kept once per scroll
(`Scroll.slither_walk`, `Scroll.coslither_walk`): the simulation laws,
the swallows and the orbit report read it.

Snakes and co-snakes are the cycles of the successor and co-successor
mod sigma, the advance of a full slither, and ouroboroi those mod the size
omega*m*n of an orbit table: both maps commute with shifts by any multiple
M of P, so they descend to the residues mod M.  Each scroll walks its two
maps once, mod P, on the offsets r = t - 1 its steps read (`walk_cycles`,
read as `Scroll.period_cycles`), stepping a live residue r by its step
advance: per live residue it gives its cycle, its index on that cycle and
its lift, per cycle its length and its winding.  Every cycle mod M is read
off those cycles through the covering map Z/M -> Z/P.

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
from itertools import accumulate, compress
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


def _step_letters(unit: bytes, advance: dict[str, int]) -> tuple[str, str]:
    """One step letter per residue of the tape's least cyclic period, unit,
    for both maps of one direction, given the signed advance of each letter
    in that direction (`slither.step_advances`): the successor and
    co-successor, or their inverses.

    The candidates of a live residue r are r + advance[letter] for each
    letter.  A dead residue gets DEAD; a live one gets its live
    candidate's letter, or, when not exactly one of its map's two
    candidates is live, the digit counting them.  Each candidate is read
    from the unit rotated by its advance mod P = len(unit), a shift of the
    unit repeated three times read as one integer, and the five 0/1 bytes
    of a residue are summed into one code byte as integers (no byte
    carries), so one integer holds both maps' candidates; the letters of
    all m*n residues are these tables repeated.
    """
    period = len(unit)
    bits = 8 * period
    mask = (1 << bits) - 1
    three = int.from_bytes(unit * 3, "big")
    code = (three >> bits & mask) * 16
    for weight, letter in zip((8, 4, 2, 1), "EDSL"):
        # bytes P + d .. 2P + d - 1 of the three units: the unit rotated by d
        code += (three >> bits - 8 * (advance[letter] % period) & mask) * weight
    codes = code.to_bytes(period, "big")
    return codes.translate(_LETTER_OF[0]).decode(), codes.translate(_LETTER_OF[1]).decode()


class Scroll:
    """A sweep orbit as one period X_1..X_T of its tape, as 0/1 bytes (T need
    not be the least), and n: its m rows are the first lcm(T, n) symbols.

    Two scrolls are equal and hash alike when their periods and n are.
    Every builder below keeps its value in the instance dict, read off
    period and n, so neither may be set or deleted once the scroll is made.
    """

    def __init__(self, period: bytes, n: int) -> None:
        vars(self).update(period=period, n=n)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a Scroll is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.period, self.n) == (other.period, other.n)

    def __hash__(self) -> int:
        return hash((self.period, self.n))

    def __repr__(self) -> str:
        return f"Scroll(period={self.period!r}, n={self.n!r})"

    @cached_property
    def m(self) -> int:
        return lcm(len(self.period), self.n) // self.n

    @cached_property
    def size(self) -> int:
        """m*n, the residues of the orbit: one table's worth per omega."""
        return self.m * self.n

    @cached_property
    def seed(self) -> str:
        """The first row: X_1..X_n, read by the reports and by each failure
        context of `verify`."""
        n, period = self.n, self.period
        return (period * (n // len(period) + 1))[:n].translate(_CHARS).decode()

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """The m rows as words, for callers that print or compare them."""
        n, period = self.n, self.period
        tape = (period * (self.size // len(period))).translate(_CHARS).decode()
        return tuple(tape[i : i + n] for i in range(0, len(tape), n))

    @cached_property
    def unit(self) -> bytes:
        """The tape's least cyclic period: its first P symbols, P found on
        `period` (`least_period`); X_t = unit[(t - 1) % P]."""
        period = self.period
        return period[: least_period(period)]

    @cached_property
    def metrics(self) -> ScrollMetrics:
        """Metrics of the length-n tape window from the first live entry."""
        unit, n = self.unit, self.n
        start = self.unit_live[0]
        window = (unit * (n // len(unit) + 2))[start : start + n]
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
        listed once, for `steps_are_maps`, the walks, the cycles and the
        laws of `verify`."""
        unit = self.unit
        return list(compress(range(len(unit)), unit))

    @cached_property
    def step_letters(self) -> tuple[str, str]:
        """Per residue of the unit, the letter of the successor, then of the
        co-successor, both from one pass (`_step_letters`)."""
        return _step_letters(self.unit, step_advances(self.n)[0])

    @cached_property
    def inverse_letters(self) -> tuple[str, str]:
        """Likewise the predecessor and co-predecessor; only the laws read them."""
        return _step_letters(self.unit, step_advances(self.n)[1])

    def _advances(self, direction: int, letters: tuple[str, str]) -> tuple[list, list]:
        """Per letter table of that direction, per residue of the unit, the
        signed tape advance of its letter (`slither.step_advances`), or None
        where the letter has none (a dead residue, or a count of live
        candidates)."""
        get = step_advances(self.n)[direction].get
        first, second = letters
        return list(map(get, first)), list(map(get, second))

    @cached_property
    def step_advances(self) -> tuple[list, list]:
        """Per residue of the unit, the advance of the successor and
        co-successor (`_advances`)."""
        return self._advances(0, self.step_letters)

    @cached_property
    def inverse_advances(self) -> tuple[list, list]:
        """Per residue of the unit, the (negative) advance of the predecessor
        and co-predecessor (`_advances`); only the laws read them."""
        return self._advances(1, self.inverse_letters)

    @cached_property
    def steps_are_maps(self) -> bool:
        """Whether all four steps are maps of the live entries: every live
        residue of the unit has an advance in each table, and it lands on a
        live residue."""
        unit, live = self.unit, self.unit_live
        size = len(unit)
        for row in self.step_advances + self.inverse_advances:
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
    def period_cycles(self) -> tuple[tuple[list, list, list, list], ...]:
        """The cycles of the successor (then co-successor) mod P = len(unit)
        (`walk_cycles`), walked on the step advances and the live residues
        of the unit.  A live residue with no advance raises, as its step
        does, named by its tape index in [1, P]: the Nones of each row are
        counted at C level, and the live residues scanned only to name the
        first one that has no advance."""
        live = self.unit_live
        for row, step in zip(self.step_advances, (self.successor_step, self.co_successor_step)):
            if row.count(None) > len(row) - len(live):  # no dead residue has an advance
                for r in live:
                    if row[r] is None:
                        step(r + 1)  # raises with the count of live candidates
        return walk_cycles(self.step_advances, live)

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
        cycle, _, lift, _ = self.period_cycles[which]
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
        live offset: a slither meets each co-snake once."""
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
        the step advances and letters.  Both walks read `snakes` for their
        count first, and its cycles (`period_cycles`) raise on a live
        residue without an advance and on a step onto a dead one, so a
        walk meets an advance at every step."""
        advances, letters = self.step_advances[step], self.step_letters[step]
        period = len(letters)
        v, offsets = self.unit_live[0], []
        for _ in range(count):
            offsets.append(v)
            v += advances[v % period]
        return offsets, "".join([letters[v % period] for v in offsets])

    def _step(self, map_index: int, t: int, what: str) -> tuple[int, str]:
        letters = self.step_letters[map_index]
        r = (t - 1) % len(letters)
        advance = self.step_advances[map_index][r]
        if advance is None:
            if letters[r] == DEAD:
                raise ValueError(f"tape index {t} is not live")
            raise AssertionError(
                f"{what} of live index {t}: {letters[r]} live candidates, expected 1"
            )
        return t + advance, letters[r]

    def successor_step(self, t: int) -> tuple[int, str]:
        return self._step(0, t, "successor")

    def co_successor_step(self, t: int) -> tuple[int, str]:
        return self._step(1, t, "co-successor")


def walk_cycles(
    advances: tuple[list, list], live: list[int]
) -> tuple[tuple[list, list, list, list], ...]:
    """The cycles of the successor (then co-successor) mod P, each map given
    by its advance per residue r = t - 1 of the unit (`Scroll.step_advances`)
    and walked once on live, the live residues in ascending order.  Four
    arrays (cycle, index, lift, cycles) per map.

    For a live r in [0, P), r is on cycle cycle[r], index[r] = k steps from
    that cycle's least member r0, and r0 + A_k = r + lift[r]*P, A_k the
    summed advance of those k steps; the three are None where r is dead.
    cycles[i] is the length and the winding of cycle i, the winding being
    its summed advance over P; cycles are numbered by their least members,
    ascending.  A map that does not permute the live residues raises.
    """
    walks = []
    for row in advances:
        period = len(row)
        cycle, index, lift, cycles = [None] * period, [None] * period, [None] * period, []
        for start in live:
            if cycle[start] is not None:
                continue
            i, k, u, d = len(cycles), 0, start, row[start]
            v = start  # r0 + A_k
            while True:
                cycle[u], index[u], lift[u] = i, k, v // period
                v += d
                k += 1
                u = v % period
                if u == start:
                    break
                d = row[u]
                if d is None or cycle[u] is not None:  # None: a dead residue
                    raise AssertionError(f"step is not a permutation of live: from {start}")
            cycles.append((k, (v - start) // period))
        walks.append((cycle, index, lift, cycles))
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
