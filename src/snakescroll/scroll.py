"""The scroll as one flat ticker tape: successor maps, snake partitions.

The scroll repeats the fundamental orbit rows cyclically, and the ticker
tape X_t is its row-major reading.  Cell (i, j) of the scroll, for any
integer row i and column j, is tape index t = i*n + j; this is the
cylinder identification, under which (i, j+n) and (i+1, j) are the same
cell.  So the tape alone is the scroll: the fundamental vector (the m
orbit rows concatenated) repeated with period m*n, read as
tape(t) = vector[(t-1) % (m*n)].

Each step map (successor, co-successor and their inverses) moves a live
index t to the one live index among two candidates.  Which candidate is
live depends only on t mod m*n, so each map is stored as one letter per
residue, found once per orbit by testing that map's own two candidates
on the vector.

All snake and co-snake computation happens on the live tape indices of
one window [0, sigma).  Shifting by sigma fixes every snake and every
co-snake (it is the advance of a full slither), and distinct snakes
cannot merge under that shift, so the finite quotient is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cycles import Orbit, orbit
from .slither import ScrollMetrics, metrics_from_row, step_advance

DEAD = "."  # step letter of a dead residue


def _step_letters(vector: bytes, n: int, letters: str, sign: int) -> str:
    """One step letter per residue of the fundamental vector.

    The candidates of a live residue r are r + sign*advance(letter) for
    each of the two letters.  A dead residue gets DEAD; a live one gets
    its live candidate's letter, or, when not exactly one candidate is
    live, the digit counting its live candidates.
    """
    size = len(vector)
    cands = [(sign * step_advance(letter, n), letter) for letter in letters]
    out = []
    for r, bit in enumerate(vector):
        if not bit:
            out.append(DEAD)
            continue
        hits = [letter for d, letter in cands if vector[(r + d) % size]]
        out.append(hits[0] if len(hits) == 1 else str(len(hits)))
    return "".join(out)


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
    def vector(self) -> bytes:
        """The fundamental vector: the first m*n tape symbols, as 0/1 bytes."""
        return bytes(map(int, "".join(self.base.rows)))

    def tape(self, t: int) -> int:
        vector = self.vector
        return vector[(t - 1) % len(vector)]

    @cached_property
    def metrics(self) -> ScrollMetrics:
        for row in self.base.rows:
            if "1" in row:
                met = metrics_from_row(row, self.n)
                if met.T_scroll != self.m:
                    raise AssertionError(
                        f"scroll period formula {met.T_scroll} != orbit length {self.m}"
                    )
                return met
        raise ValueError("orbit contains no live entries")

    @cached_property
    def tape_period(self) -> int:
        return self.metrics.T_tape

    @cached_property
    def successor_letters(self) -> str:
        return _step_letters(self.vector, self.n, "ED", 1)

    @cached_property
    def co_successor_letters(self) -> str:
        return _step_letters(self.vector, self.n, "SL", 1)

    @cached_property
    def predecessor_letters(self) -> str:
        return _step_letters(self.vector, self.n, "ED", -1)

    @cached_property
    def co_predecessor_letters(self) -> str:
        return _step_letters(self.vector, self.n, "SL", -1)

    def _step(self, letters: str, t: int, sign: int, what: str) -> tuple[int, str]:
        letter = letters[(t - 1) % len(letters)]
        if letter == DEAD:
            raise ValueError(f"tape index {t} is not live")
        if letter.isdigit():
            raise AssertionError(
                f"{what} of live index {t}: {letter} live candidates, expected 1"
            )
        return t + sign * step_advance(letter, self.n), letter

    def successor_step(self, t: int) -> tuple[int, str]:
        return self._step(self.successor_letters, t, 1, "successor")

    def successor(self, t: int) -> int:
        return self.successor_step(t)[0]

    def co_successor_step(self, t: int) -> tuple[int, str]:
        return self._step(self.co_successor_letters, t, 1, "co-successor")

    def co_successor(self, t: int) -> int:
        return self.co_successor_step(t)[0]

    def predecessor_step(self, t: int) -> tuple[int, str]:
        return self._step(self.predecessor_letters, t, -1, "predecessor")

    def predecessor(self, t: int) -> int:
        return self.predecessor_step(t)[0]

    def co_predecessor_step(self, t: int) -> tuple[int, str]:
        return self._step(self.co_predecessor_letters, t, -1, "co-predecessor")

    def co_predecessor(self, t: int) -> int:
        return self.co_predecessor_step(t)[0]


def scroll_from_seed(bits: str) -> Scroll:
    return Scroll(orbit(bits))


def cycle_labels(items, step) -> dict:
    """Map each item to the least member of its cycle under step.

    step must permute items; otherwise AssertionError.  The keys are the
    caller's own item objects.
    """
    label = dict.fromkeys(items)
    for start in label:
        if label[start] is not None:
            continue
        label[start] = start
        cycle = [start]
        x = step(start)
        while x != start:
            if x not in label or label[x] is not None:
                raise AssertionError(f"step is not a permutation of the items: reached {x}")
            label[x] = start
            cycle.append(x)
            x = step(x)
        least = min(cycle)
        for x in cycle:
            label[x] = least
    return label


@dataclass(frozen=True)
class SnakePartition:
    sigma: int
    window: tuple[int, ...]  # live tape indices in [0, sigma)
    snake_label: dict[int, int]
    cosnake_label: dict[int, int]

    @property
    def alpha(self) -> int:
        return len(set(self.snake_label.values()))

    @property
    def beta(self) -> int:
        return len(set(self.cosnake_label.values()))

    def snake_of(self, t: int) -> int:
        return self.snake_label[t % self.sigma]

    def cosnake_of(self, t: int) -> int:
        return self.cosnake_label[t % self.sigma]


@lru_cache(maxsize=128)
def snakes_and_cosnakes(s: Scroll) -> SnakePartition:
    sigma = s.metrics.sigma
    window = tuple(t for t in range(sigma) if s.tape(t) == 1)
    if not window:
        raise ValueError("scroll window has no live entries")
    return SnakePartition(
        sigma,
        window,
        cycle_labels(window, lambda t: s.successor(t) % sigma),
        cycle_labels(window, lambda t: s.co_successor(t) % sigma),
    )
