"""Host-speed calibration shared by the benchmark's processes.

A fixed pure-Python loop is timed around the measured work; a time is
normalized as ``raw * NOMINAL_REF_S / measured reference seconds``, i.e.
expressed in seconds of a host on which the loop takes ``NOMINAL_REF_S``.
Raw wall time of the same pass moves by about a fifth between processes
on a shared host, the ratio to this loop by far less.
"""

from __future__ import annotations

import gc
import time

NOMINAL_REF_S = 0.020  # reference-loop seconds on the host the sizes were set on
REF_SIZE = 9000


class _Cell:
    __slots__ = ("key", "up")

    def __init__(self, key: int, up) -> None:
        self.key, self.up = key, up


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the program's own.

    Small objects with attribute chains, a dict forest chased like a
    disjoint set, tuple keys, string rotations and translation, sorting.
    A tight arithmetic loop alone tracks host speed worse: contention from
    other tenants slows allocation-heavy code more than it slows a loop
    that stays in the first-level cache.
    """
    acc = 0
    cells = [_Cell(0, None)]
    for i in range(1, REF_SIZE):
        cells.append(_Cell(i, cells[i // 2]))
    for cell in cells[::5]:
        while cell is not None:
            acc += cell.key & 1
            cell = cell.up
    parent = {i: (i * 7919) % REF_SIZE for i in range(REF_SIZE)}
    for i in range(0, REF_SIZE, 2):
        x = i
        for _ in range(6):
            x = parent[x]
        acc += x
    table: dict = {}
    for i in range(REF_SIZE):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
    rank = str.maketrans("01", "DE")
    words = []
    for i in range(REF_SIZE // 4):
        w = format(i * 2654435761 % 8192, "013b")
        words.append(min(w[k:] + w[:k] for k in range(0, 13, 2)).translate(rank))
    words.sort()
    return acc + len(table) + len(set(words))


def time_reference() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
