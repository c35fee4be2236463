"""Print what one orbit costs the per-orbit theorem suite and the table
laws, per n and fitted.

    python tests/orbit_cost.py

It times `verify.check_scroll` (extended laws) on every orbit of C_n,
n = 2..16, each time on a fresh `Scroll` of the same period and n, so
every value the laws read is built inside the timing.  Each of RUNS
(eleven) rounds times every orbit once, with the garbage collector off,
and each orbit keeps its median over the rounds.  The same rounds time
three parts of each orbit's cost apart: the simulation of its orbit from
its seed (`cycles.orbit`), the reading of every scroll builder the laws
read on a fresh `Scroll` (the values one `check_scroll` leaves in a fresh
scroll's instance dict, read in the order it built them), and the law
bodies, `check_scroll` on that built scroll.  Per n it prints the
orbits, the live residues of their least tape periods (`Scroll.unit_live`,
the residues the per-orbit laws visit), and the medians over its orbits
of their times and of each part.  Then it fits time = constant + slope *
live residues over all orbits by least squares, and prints the per-orbit
constant, the per-live-residue slope and the constant's share of the
summed times.

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

from snakescroll.cycles import all_orbits, orbit  # noqa: E402
from snakescroll.scroll import Scroll  # noqa: E402
from snakescroll.verify import VerificationReport, check_scroll, check_tables  # noqa: E402

N_MAX = 16
TABLES_N_MAX = 10
OMEGA_MAXES = (12, 60)
RUNS = 11


def check_us(s: Scroll, omega_max: int = 0) -> float:
    """The time of `check_scroll`, or of `check_tables` up to omega_max,
    on a fresh copy of s, in us."""
    fresh, rep = Scroll(s.unit, s.n), VerificationReport()
    start = time.perf_counter()
    if omega_max:
        check_tables(fresh, omega_max, rep)
    else:
        check_scroll(fresh, rep)
    return (time.perf_counter() - start) * 1e6


def builders(s: Scroll) -> list[str]:
    """The scroll builders `check_scroll` reads on s, in the order it builds
    them: the values one run leaves in a fresh scroll's instance dict."""
    fresh = Scroll(s.unit, s.n)
    check_scroll(fresh, VerificationReport())
    return [name for name in vars(fresh) if name not in ("unit", "n")]


def orbit_us(s: Scroll, names: list[str]) -> tuple[float, float, float, float]:
    """`check_us` on s, then three parts, in us: the simulation of its orbit
    from its seed, reading names on a fresh copy of s, and `check_scroll`
    on that built copy, the law bodies alone."""
    total, fresh = check_us(s), Scroll(s.unit, s.n)
    start = time.perf_counter()
    orbit(s.seed)
    simulated = time.perf_counter()
    for name in names:
        getattr(fresh, name)
    built = time.perf_counter()
    check_scroll(fresh, VerificationReport())
    laws = time.perf_counter()
    return total, (simulated - start) * 1e6, (built - simulated) * 1e6, (laws - built) * 1e6


def medians(orbits: list[Scroll], measure) -> list[tuple[float, ...]]:
    """Per orbit, the median of RUNS rounds of each part measure(s) returns."""
    gc.collect()
    gc.disable()
    rounds = [[measure(s) for s in orbits] for _ in range(RUNS)]
    gc.enable()
    return [tuple(map(statistics.median, zip(*times))) for times in zip(*rounds)]


def main() -> int:
    orbits = [s for n in range(2, N_MAX + 1) for s in all_orbits(n)]
    names = {s: builders(s) for s in orbits}
    times = medians(orbits, lambda s: orbit_us(s, names[s]))
    print(f"Python {sys.version.split()[0]}, median of {RUNS} rounds per orbit")
    print(f"{'n':>3} {'orbits':>7} {'live':>6} {'us/orbit':>9} "
          f"{'simulate':>9} {'builders':>9} {'laws':>9}")
    for n in range(2, N_MAX + 1):
        here = [(len(s.unit_live), *us) for s, us in zip(orbits, times) if s.n == n]
        live = sum(x for x, *_ in here)
        parts = " ".join(f"{statistics.median(part):>9.1f}" for part in list(zip(*here))[1:])
        print(f"{n:>3} {len(here):>7} {live:>6} {parts}")
    points = [(len(s.unit_live), us[0]) for s, us in zip(orbits, times)]
    slope, constant = statistics.linear_regression(*zip(*points))
    share = constant * len(points) / sum(y for _, y in points)
    print(f"least squares over {len(points)} orbits: {constant:.1f} us per orbit "
          f"+ {slope:.2f} us per live residue; the constant is {share:.0%} of the time")
    orbits = [s for s in orbits if s.n <= TABLES_N_MAX]
    points = []
    for omega_max in OMEGA_MAXES:
        times = [us for us, in medians(orbits, lambda s: (check_us(s, omega_max),))]
        points += [(omega_max, us) for us in times]
        print(f"check_tables, omega <= {omega_max}: {statistics.median(times):.1f} us median "
              f"over the {len(orbits)} orbits of n = 2..{TABLES_N_MAX}")
    slope, constant = statistics.linear_regression(*zip(*points))
    print(f"least squares over {len(points)} points: {constant:.1f} us per orbit "
          f"+ {slope:.2f} us per omega")
    return 0


if __name__ == "__main__":
    sys.exit(main())
