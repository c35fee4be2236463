"""Print what one orbit costs the per-orbit theorem suite and the table
laws, per n and fitted.

    python tests/orbit_cost.py

It times `verify.check_scroll` (extended laws) on every orbit of C_n,
n = 2..16, each time on a fresh `Scroll` of the same period and n, so
every value the laws read is built inside the timing.  Each of RUNS
(eleven) rounds times every orbit once, with the garbage collector off,
and each orbit keeps its median over the rounds.  Per n it prints the
orbits, the live residues of their least tape periods (`Scroll.unit_live`,
the residues the per-orbit laws visit) and the median of the orbits'
times.  Then it fits time = constant + slope * live residues over all
orbits by least squares, and prints the per-orbit constant, the
per-live-residue slope and the constant's share of the summed times.

Then it times `verify.check_tables` the same way on every orbit of C_n,
n = 2..TABLES_N_MAX (ten), at omega <= 12 and at omega <= 60, and fits
time = constant + slope * omega_max over both, by least squares: the
per-orbit constant and the per-omega slope.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from snakescroll.cycles import all_orbits  # noqa: E402
from snakescroll.scroll import Scroll  # noqa: E402
from snakescroll.verify import VerificationReport, check_scroll, check_tables  # noqa: E402

N_MAX = 16
TABLES_N_MAX = 10
OMEGA_MAXES = (12, 60)
RUNS = 11


def check_us(s: Scroll, omega_max: int = 0) -> float:
    """The time of `check_scroll`, or of `check_tables` up to omega_max,
    on a fresh copy of s, in us."""
    fresh, rep = Scroll(s.period, s.n), VerificationReport()
    start = time.perf_counter()
    if omega_max:
        check_tables(fresh, omega_max, rep)
    else:
        check_scroll(fresh, rep)
    return (time.perf_counter() - start) * 1e6


def medians(orbits: list[Scroll], omega_max: int = 0) -> list[float]:
    """Per orbit, the median of RUNS rounds of `check_us`."""
    gc.collect()
    gc.disable()
    rounds = [[check_us(s, omega_max) for s in orbits] for _ in range(RUNS)]
    gc.enable()
    return [statistics.median(times) for times in zip(*rounds)]


def main() -> int:
    orbits = [s for n in range(2, N_MAX + 1) for s in all_orbits(n)]
    points = [(len(s.unit_live), us) for s, us in zip(orbits, medians(orbits))]
    print(f"Python {sys.version.split()[0]}, median of {RUNS} rounds per orbit")
    print(f"{'n':>3} {'orbits':>7} {'live':>6} {'us/orbit':>9}")
    for n in range(2, N_MAX + 1):
        here = [point for s, point in zip(orbits, points) if s.n == n]
        live = sum(x for x, _ in here)
        median = statistics.median(y for _, y in here)
        print(f"{n:>3} {len(here):>7} {live:>6} {median:>9.1f}")
    slope, constant = statistics.linear_regression(*zip(*points))
    share = constant * len(points) / sum(y for _, y in points)
    print(f"least squares over {len(points)} orbits: {constant:.1f} us per orbit "
          f"+ {slope:.2f} us per live residue; the constant is {share:.0%} of the time")
    orbits = [s for s in orbits if s.n <= TABLES_N_MAX]
    points = []
    for omega_max in OMEGA_MAXES:
        times = medians(orbits, omega_max)
        points += [(omega_max, us) for us in times]
        print(f"check_tables, omega <= {omega_max}: {statistics.median(times):.1f} us median "
              f"over the {len(orbits)} orbits of n = 2..{TABLES_N_MAX}")
    slope, constant = statistics.linear_regression(*zip(*points))
    print(f"least squares over {len(points)} points: {constant:.1f} us per orbit "
          f"+ {slope:.2f} us per omega")
    return 0


if __name__ == "__main__":
    sys.exit(main())
