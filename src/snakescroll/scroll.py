"""The scroll as one flat ticker tape: step maps, snakes and their cycles.

The scroll stacks the orbit's rows cyclically, and the ticker tape X_t
is its row-major reading.  Cell (i, j) of the scroll, for any integer row
i and column j, is tape index t = i*n + j; this is the cylinder
identification, under which (i, j+n) and (i+1, j) are the same cell.  So
the tape alone is the scroll, and a scroll keeps one least period P of it
(`Scroll.unit`, found on the orbit's period): X_t = unit[(t - 1) % P],
and the m*n = lcm(T, n) residues of the orbit are the unit repeated.

Each step map (successor, co-successor and their inverses) moves a live
index t to the one live index among two candidates.  Which candidate is
live depends only on t mod P, so each map is stored as one letter per
residue of the unit, found by testing that map's own two candidates
there, and as one signed advance per residue: `Scroll.step_advances` for
the successor and co-successor, `Scroll.inverse_advances` for their
inverses, both built by `Scroll._advances`, the one place letters become
advances.  A step at t reads its letter and advance at (t - 1) mod P.
Only the laws of `verify` read the inverse steps, so a scroll that is
only rendered or reported builds neither their letters nor advances.
The walk of one slither (co-slither) from the first live index, its tape
indices and letters, is kept once per scroll (`Scroll.slither_walk`,
`Scroll.coslither_walk`): the simulation laws, the swallows and the orbit
report read it.

Snakes and co-snakes are the cycles of the successor and co-successor
mod sigma, the advance of a full slither, and ouroboroi those mod the size
omega*m*n of an orbit table: both maps commute with shifts by any multiple
M of the tape period T, so they descend to the residues mod M.  Each
scroll walks its two maps once, mod T (`walk_cycles`, read as
`Scroll.period_cycles`), stepping a residue v by its advance
(`Scroll.period_advances`): per live residue it gives its cycle, its
index on that cycle and its lift, per cycle its length, its winding and
its start, the least member.  Every cycle mod M is read off those cycles
through the covering map Z/M -> Z/T.

A cycle of a map mod T whose advances sum to w*T lifts to gcd(w, M/T)
cycles mod M: the map commutes with the shift by T, so going once round
the cycle moves each point of its fibre, a coset of T*Z/M*Z, by w*T, and
the fibre splits into the gcd(w, M/T) orbits of that translation.  So the
counts at any M are sums of gcds of the windings (`lifted_counts`), and
`Scroll.snakes` is the pair (alpha, beta) at sigma.  The same covering
places each point mod M on its cycle of each map: u + x*T, u < T with
lift q on cycle i of winding w, lies on the lift numbered
(x - q) mod gcd(w, M/T).  The snake labels mod sigma, the least residue
of each residue's snake and co-snake (`Scroll.snake_labels`), are read
that way in one ascending pass, for the swallows and the renderers
alone.  The torsor laws of `verify` walk only the successor mod M,
stepping a residue v by the advance at v mod T, and read the
co-successor orbits off the cycles mod T; its laws on snakes and
co-snakes mod sigma read both off the cycles mod T and run on the
residues mod T alone.  No law builds anything of size M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd
from typing import NamedTuple

from .cycles import _CHARS, Orbit, cached_property, orbit
from .cyclic import least_period
from .slither import ScrollMetrics, metrics_from_row, step_advance

DEAD = "."  # step letter of a dead residue
# per letter pair, a translation table from the code byte 4*(residue live) +
# 2*(first candidate live) + (second candidate live) to its step letter
_LETTER_OF = {
    pair: (DEAD * 4 + "0" + pair[1] + pair[0] + "2").encode().ljust(256, DEAD.encode())
    for pair in ("ED", "SL")
}


class SnakeCounts(NamedTuple):
    alpha: int  # snakes: cycles of the successor mod sigma
    beta: int  # co-snakes: cycles of the co-successor mod sigma


def _step_letters(unit: bytes, n: int, letters: str, sign: int) -> str:
    """One step letter per residue of the tape's least cyclic period, unit.

    The candidates of a live residue r are r + sign*advance(letter) for
    each of the two letters.  A dead residue gets DEAD; a live one gets
    its live candidate's letter, or, when not exactly one candidate is
    live, the digit counting its live candidates.  Each candidate is read
    from the unit rotated by its advance mod P = len(unit), and the three
    0/1 bytes of a residue are summed into one code byte as integers (no
    byte carries); the letters of all m*n residues are this table repeated.
    """
    period = len(unit)
    code = int.from_bytes(unit, "big") * 4
    for weight, letter in zip((2, 1), letters):
        d = sign * step_advance(letter, n) % period
        code += int.from_bytes(unit[d:] + unit[:d], "big") * weight
    return code.to_bytes(period, "big").translate(_LETTER_OF[letters]).decode()


@dataclass(frozen=True)
class Scroll:
    base: Orbit

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def size(self) -> int:
        """m*n, the residues of the orbit: one table's worth per omega."""
        return self.base.m * self.base.n

    @cached_property
    def unit(self) -> bytes:
        """The tape's least cyclic period: its first P symbols, P found on
        the orbit's period (`least_period`); X_t = unit[(t - 1) % P]."""
        period = self.base.period
        return period[: least_period(period)]

    @cached_property
    def metrics(self) -> ScrollMetrics:
        """Metrics of the length-n tape window from the first live entry."""
        unit = self.unit
        start = unit.index(1)
        window = (unit * (self.n // len(unit) + 2))[start : start + self.n]
        return metrics_from_row(window.translate(_CHARS).decode(), self.n)

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
    def fundamental_counts(self) -> tuple[int, int]:
        """The predicted (bar_alpha_1, bar_beta_1) of the omega = 1 table:
        alpha / deg p_1 and beta / codeg p_1, alpha and beta read off the words."""
        met, (deg_p1, codeg_p1) = self.metrics, self.fundamental_degrees
        return met.coslither.alpha // deg_p1, met.slither.beta // codeg_p1

    @cached_property
    def successor_letters(self) -> str:
        return _step_letters(self.unit, self.n, "ED", 1)

    @cached_property
    def co_successor_letters(self) -> str:
        return _step_letters(self.unit, self.n, "SL", 1)

    @cached_property
    def predecessor_letters(self) -> str:
        return _step_letters(self.unit, self.n, "ED", -1)

    @cached_property
    def co_predecessor_letters(self) -> str:
        return _step_letters(self.unit, self.n, "SL", -1)

    def _advances(self, sign: int, *tables: str) -> tuple[list, ...]:
        """Per table of letters, per residue of the unit, the signed tape
        advance of its letter (sign 1 for a forward step, -1 for an inverse
        one), or None where the letter has none (a dead residue, or a count
        of live candidates)."""
        advance = {x: sign * step_advance(x, self.n) for x in "EDSL"}
        return tuple(list(map(advance.get, letters)) for letters in tables)

    @cached_property
    def step_advances(self) -> tuple[list, list]:
        """Per residue of the unit, the advance of the successor and
        co-successor (`_advances`)."""
        return self._advances(1, self.successor_letters, self.co_successor_letters)

    @cached_property
    def inverse_advances(self) -> tuple[list, list]:
        """Per residue of the unit, the (negative) advance of the predecessor
        and co-predecessor (`_advances`); only the laws read them."""
        return self._advances(-1, self.predecessor_letters, self.co_predecessor_letters)

    @cached_property
    def steps_are_maps(self) -> bool:
        """Whether all four steps are maps of the live entries: every live
        residue of the unit has an advance in each table, and it lands on a
        live residue."""
        unit = self.unit
        size = len(unit)
        live = list(compress(range(size), unit))
        return all(
            row[r] is not None and unit[(r + row[r]) % size]
            for row in self.step_advances + self.inverse_advances
            for r in live
        )

    @cached_property
    def snakes(self) -> SnakeCounts:
        """The numbers of snakes and co-snakes: the cycle counts of both maps
        mod sigma, lifted from the windings mod T (`lifted_counts`)."""
        met = self.metrics
        return SnakeCounts(*lifted_counts(self, met.sigma // met.T_tape))

    @cached_property
    def period_advances(self) -> tuple[list, list]:
        """Per tape index t in [0, T), T the tape period, its successor and
        co-successor advance, read off `step_advances` at (t - 1) mod P;
        None where t is dead.  A live index with no advance raises, as its
        step does, named by its tape index in [1, P]."""
        period, unit, arrays = self.metrics.T_tape, self.unit, []
        for row, step in zip(self.step_advances, (self.successor_step, self.co_successor_step)):
            for r in compress(range(len(unit)), unit):
                if row[r] is None:
                    step(r + 1)  # raises with the count of live candidates
            # the advance of t - 1, at t
            arrays.append((row[-1:] + row * (period // len(row) + 1))[:period])
        return tuple(arrays)

    @cached_property
    def period_live(self) -> tuple[int, int]:
        """The least live index in [0, T), T the tape period, and the number
        of live ones, read off the successor's period advances."""
        succ = self.period_advances[0]
        return next(t for t, d in enumerate(succ) if d is not None), len(succ) - succ.count(None)

    @cached_property
    def period_cycles(self) -> tuple[tuple[list, list, list, list], ...]:
        """The cycles of the successor (then co-successor) mod the tape
        period T (`walk_cycles`) on the live residues mod T, those with a
        successor advance."""
        succ = self.period_advances[0]
        return walk_cycles(self.period_advances, tuple(t for t, d in enumerate(succ) if d is not None))

    @cached_property
    def windings(self) -> tuple[list[int], list[int]]:
        """Per cycle of the successor (then co-successor) mod the tape period
        T, its summed advance over T."""
        return tuple([w for _, w, _ in cycles] for *_, cycles in self.period_cycles)

    @cached_property
    def snake_labels(self) -> tuple[list, list]:
        """Per residue mod sigma, the least residue of its snake (then its
        co-snake), None where dead, read off the cycles mod T through the
        covering: u + x*T, u < T with lift q on cycle i of winding w, lies
        on the lift numbered (x - q) mod gcd(w, sigma/T).  The residues are
        visited in ascending order, so each lift is named by the first
        residue met on it."""
        period = self.metrics.T_tape
        fold = self.metrics.sigma // period
        labels = []
        for cycle, _, lift, cycles in self.period_cycles:
            gcds = [gcd(w, fold) for _, w, _ in cycles]
            # per live residue u < T: u, the key of its cycle, its lift, its gcd
            on = [(u, i * fold, lift[u], gcds[i]) for u, i in enumerate(cycle) if i is not None]
            label, least = [None] * (fold * period), {}
            for x in range(fold):
                base = x * period
                for u, key, q, g in on:
                    label[base + u] = least.setdefault(key + (x - q) % g, base + u)
            labels.append(label)
        return tuple(labels)

    @cached_property
    def slither_walk(self) -> tuple[list[int], str]:
        """The tape indices and letters of beta successor steps from the
        first live index: a slither meets each co-snake once."""
        return self._walk(self.successor_step, self.snakes.beta)

    @cached_property
    def coslither_walk(self) -> tuple[list[int], str]:
        """Likewise alpha co-successor steps: a co-slither meets each snake once."""
        return self._walk(self.co_successor_step, self.snakes.alpha)

    @cached_property
    def swallow_orders(self) -> tuple[tuple, tuple]:
        """The snake labels at the co-slither walk's tape indices, then the
        co-snake labels at the slither walk's: each walk meets each of its
        snakes (co-snakes) once, so these are the labels in the cyclic order
        every swallow (co-swallow) permutes, whatever the table."""
        orders = []
        for labels, (indices, _) in zip(
            self.snake_labels, (self.coslither_walk, self.slither_walk)
        ):
            modulus = len(labels)
            order = tuple([labels[k % modulus] for k in indices])
            if len(set(order)) != len(order):
                raise AssertionError("step map does not traverse all labels once")
            orders.append(order)
        return tuple(orders)

    def _walk(self, step, count: int) -> tuple[list[int], str]:
        t, indices, letters = self.unit.index(1) + 1, [], []
        for _ in range(count):
            indices.append(t)
            t, letter = step(t)
            letters.append(letter)
        return indices, "".join(letters)

    def _step(self, map_index: int, letters: str, t: int, what: str) -> tuple[int, str]:
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
        return self._step(0, self.successor_letters, t, "successor")

    def co_successor_step(self, t: int) -> tuple[int, str]:
        return self._step(1, self.co_successor_letters, t, "co-successor")


def scroll_from_seed(bits: str) -> Scroll:
    return Scroll(orbit(bits))


def walk_cycles(
    advances: tuple[list, list], live: tuple[int, ...]
) -> tuple[tuple[list, list, list, list], ...]:
    """The cycles of the successor (then co-successor) mod the tape period
    T, each map given by its advance per residue mod T (`Scroll.period_advances`)
    and walked once on live, the live residues mod T in ascending order.
    Four arrays (cycle, index, lift, cycles) per map.

    For a live u in [0, T), u is on cycle cycle[u], index[u] = k steps from
    that cycle's least member u0, and u0 + A_k = u + lift[u]*T, A_k the
    summed advance of those k steps; the three are None where u is dead.
    cycles[i] is the length, the winding and the least member of cycle i,
    the winding being its summed advance over T; cycles are numbered by
    their least members, ascending.  A map that does not permute the live
    residues raises.
    """
    walks = []
    for row in advances:
        period = len(row)
        cycle, index, lift, cycles = [None] * period, [None] * period, [None] * period, []
        for start in live:
            if cycle[start] is not None:
                continue
            i, k, u, d = len(cycles), 0, start, row[start]
            v = start  # u0 + A_k
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
            cycles.append((k, (v - start) // period, start))
        walks.append((cycle, index, lift, cycles))
    return tuple(walks)


def lifted_counts(s: Scroll, fold: int) -> tuple[int, int]:
    """The cycle counts of the successor and co-successor of s mod fold*T,
    T its tape period: each cycle mod T of winding w lifts to gcd(w, fold)."""
    succ, co_succ = s.windings
    return sum(map(gcd, succ, repeat(fold))), sum(map(gcd, co_succ, repeat(fold)))
