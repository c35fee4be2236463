"""The flat ticker tape, successor maps, snake counts and labels."""

import ast
import functools
from pathlib import Path

import pytest

from snakescroll import scroll
from snakescroll.cycles import all_orbits, orbit
from snakescroll.scroll import DEAD, Scroll, cached_property
from snakescroll.slither import step_advances

from mutants import owners
from oracles import co_successor, successor, vector

SEED11 = "00001010000"


def test_scroll_reads_repeat_the_orbit():
    s = orbit(SEED11)
    assert s.m == 7
    # X_t for t in [0, 4*m*n), read off the tape's least period
    reads = bytes(s.unit[(t - 1) % len(s.unit)] for t in range(4 * 77))
    for t in range(3 * 77):
        assert reads[t] == reads[t + 77]  # one orbit period: m*n tape cells
    for i, row in enumerate(s.rows):
        assert reads[i * 11 + 1 : i * 11 + 12] == bytes(map(int, row))


def test_successor_steps_on_the_running_example():
    s = orbit(SEED11)
    # row 0 live columns are 5 and 7: tape indices 5 and 7
    assert vector(s)[4] == 1 and vector(s)[6] == 1
    letters = s.steps.letters[0]  # read at t - 1 mod P = 7
    assert (successor(s, 5), letters[5 - 1]) == (7, "E")
    assert (successor(s, 7), letters[7 - 1]) == (19, "D")  # lands in row 1
    # the inverse letters, read at the image, step back by their advance
    predecessor, co_predecessor = s.inverse_steps.letters
    assert predecessor[7 - 1] == "E" and 7 - step_advances(11)[0]["E"] == 5
    u = co_successor(s, 5)  # the tables are one least period, 7 letters
    assert u - step_advances(11)[0][co_predecessor[(u - 1) % 7]] == 5


def test_successor_and_co_successor_commute():
    s = orbit(SEED11)
    live = [t for t in range(1, 7 * 11 + 1) if vector(s)[t - 1] == 1]
    for t in live:
        assert successor(s, co_successor(s, t)) == co_successor(s, successor(s, t))


def _live(labels: list) -> list[int]:
    return [t for t, label in enumerate(labels) if label is not None]


def test_snake_counts():
    s = orbit(SEED11)
    assert s.snakes == (2, 6)
    assert (s.snakes.alpha, s.snakes.beta) == (2, 6)
    snake, cosnake = s.snake_labels
    assert len(snake) == len(cosnake) == s.metrics.sigma == 42
    assert len(_live(snake)) == 12  # alpha * beta
    assert (len(set(snake) - {None}), len(set(cosnake) - {None})) == (2, 6)


def test_snake_labels_invariant_under_steps():
    s = orbit(SEED11)
    snake, cosnake = s.snake_labels
    for t in _live(snake):
        assert snake[successor(s, t) % 42] == snake[t]
        assert cosnake[co_successor(s, t) % 42] == cosnake[t]


def test_fibers_are_singletons():
    s = orbit(SEED11)
    snake, cosnake = s.snake_labels
    live = _live(snake)
    for t in live:
        fiber = [u for u in live if snake[u] == snake[t] and cosnake[u] == cosnake[t]]
        assert fiber == [t]


def test_step_failures_are_per_index():
    # not a sweep orbit: tape 10000010 repeating, live at residues 1 and 7
    s = Scroll(bytes([1, 0, 0, 0, 0, 0, 1, 0]), 4)
    message = "successor of live index 1: 0 live candidates, expected 1"
    assert str(s.not_unique(0, 1)) == message
    with pytest.raises(AssertionError, match=f"^{message}$"):
        s.period_cycles
    assert co_successor(s, 1) == 7 and s.steps.letters[1][0] == "L"


def reference_step_letters(bits: bytes, n: int, letters: str, sign: int) -> str:
    """Brute-force step letters: each residue's candidates read mod the size."""
    size = len(bits)
    out = []
    for r, bit in enumerate(bits):
        if not bit:
            out.append(DEAD)
            continue
        hits = [x for x in letters if bits[(r + sign * step_advances(n)[0][x]) % size]]
        out.append(hits[0] if len(hits) == 1 else str(len(hits)))
    return "".join(out)


def least_cyclic_period(bits: bytes) -> int:
    return next(p for p in range(1, len(bits) + 1) if bits[p:] + bits[:p] == bits)


def test_step_letters_match_the_reference():
    # the tables are the vector's least period P, built there: repeated to
    # the vector's length they are the reference; an orbit's vector given
    # twice with its last symbol flipped makes P = m*n
    orbits = [o for n in range(2, 17) for o in all_orbits(n)]
    scrolls = orbits + [Scroll(bytes([1, 0, 0, 0, 0, 0, 1, 0]), 4)]
    for o in orbits:
        bits = bytearray(vector(o) * 2)
        bits[-1] ^= 1
        flipped = Scroll(bytes(bits), o.n)
        assert vector(flipped) == bits
        assert least_cyclic_period(vector(flipped)) == len(bits)
        scrolls.append(flipped)
    for s in scrolls:
        bits = vector(s)
        period = least_cyclic_period(bits)
        laps = len(bits) // period
        for got, advances, letters, sign in zip(
            s.steps.letters + s.inverse_steps.letters,
            s.steps.advances + s.inverse_steps.advances,
            ("ED", "SL", "ED", "SL"),
            (1, 1, -1, -1),
        ):
            assert len(got) == period, s.rows
            assert got * laps == reference_step_letters(bits, s.n, letters, sign), s.rows
            # the signed advance of each letter, None on a dead or count letter
            assert advances == [
                sign * step_advances(s.n)[0][x] if x in letters else None for x in got
            ], s.rows


def test_running_example_tape_period():
    s = orbit(SEED11)
    assert s.metrics.T_tape == 7


def test_cached_values_are_stdlib_cached_properties_stored_on_first_read():
    assert isinstance(Scroll.snake_labels, functools.cached_property)
    assert isinstance(Scroll.rows, functools.cached_property)
    # every cached value reads without the stdlib lock
    cached = [v for v in vars(Scroll).values() if isinstance(v, functools.cached_property)]
    assert cached and all(type(v) is cached_property for v in cached)
    s = orbit(SEED11)
    assert "snake_labels" not in vars(s)
    labels = s.snake_labels
    assert vars(s)["snake_labels"] is labels and s.snake_labels is labels
    rows = s.rows
    assert vars(s)["rows"] is rows


def test_an_injected_value_is_read_without_its_builder(monkeypatch):
    s = orbit(SEED11)

    def builder(_):
        raise AssertionError("builder called")

    monkeypatch.setattr(Scroll.__dict__["metrics"], "func", builder)
    vars(s)["metrics"] = "injected"
    assert s.metrics == "injected"


def test_a_raising_builder_stores_nothing_and_raises_again(monkeypatch):
    s, calls = orbit(SEED11), []

    def builder(_):
        calls.append(1)
        raise AssertionError("builder raised")

    monkeypatch.setattr(Scroll.__dict__["steps"], "func", builder)
    for expected in (1, 2):
        with pytest.raises(AssertionError, match="^builder raised$"):
            s.steps
        assert "steps" not in vars(s) and len(calls) == expected


def test_a_step_with_no_unique_letter_has_one_error():
    # no module of the package names a step method, and the message of a
    # step with no unique letter is written in one function, Scroll.not_unique
    named, writers = [], set()
    for path in sorted(Path(scroll.__file__).parent.glob("*.py")):
        source = path.read_text()
        named += [path.stem] if "successor_step" in source else []
        tree = ast.parse(source)
        owner = owners(tree)
        writers |= {
            (path.stem, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and "live candidates, expected 1" in str(node.value)
        }
    assert named == []
    assert writers == {("scroll", "Scroll.not_unique")}
