"""Workload process of the snakescroll benchmark.

``run.py`` starts this file in a fresh interpreter with a pinned
environment.  It imports snakescroll from ``src/``, builds the
workload's requests from ``--seed``, runs them in a closed loop with one
client, checks every output against the frozen references and prints
one JSON object on stdout.

Every request starts from cold caches: each ``lru_cache`` in the package
is cleared first, because each CLI call is a fresh process.

Timings are calibrated against host speed (see ``calibrate.py``): the
reference loop is timed before the first request and again whenever half
a second has passed, and each request's seconds are scaled by
``NOMINAL_REF_S / (median reference time within a second of it)``.

With ``--setup-only`` the process stops after building the requests; the
parent times that to get the set-up cost.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import snakescroll  # noqa: E402,F401  (loads every module of the package)
from snakescroll import cli, cycles, report, verify  # noqa: E402

import tracer  # noqa: E402
from calibrate import NOMINAL_REF_S, time_reference  # noqa: E402

CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 1.0
MAX_REPEATS = 50
ORBIT_FORMATS = ("text", "json", "svg")


def load_references() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- cold caches -----------------------------------------------------------


def package_caches() -> dict[str, object]:
    """Every lru_cache object bound in a snakescroll module, by dotted name."""
    found = {}
    for mod in tracer.package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found.setdefault(id(value), (f"{mod.__name__}.{key}", value))
    return dict(found.values())


class CacheStats:
    """Clears the package caches before a request, sums hits after it."""

    def __init__(self) -> None:
        self.caches = package_caches()
        self.hits: dict[str, int] = {name: 0 for name in self.caches}
        self.misses: dict[str, int] = {name: 0 for name in self.caches}

    def cold_start(self) -> bool:
        """Clear every cache; False unless each then reports zero hits."""
        clean = True
        for cache in self.caches.values():
            cache.cache_clear()
            info = cache.cache_info()
            clean = clean and info.hits == 0 and info.currsize == 0
        return clean

    def collect(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses

    def hit_ratio(self, name: str) -> float:
        total = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits[name] / total if total else 0.0


# -- workloads -------------------------------------------------------------
#
# A workload builds its request set from the seed (``requests``), runs one
# request and returns its output (``call``), and compares that output with
# the frozen reference, returning the units of work done or None on a
# mismatch (``check``).  A run repeats the set once per pass, each pass in
# its own seeded order.


class PerN:
    """One request per n in 2..n_max; the seed shuffles n within each pass."""

    def __init__(self, name: str, n_max: int, pass_s: float, min_sample_s: float):
        self.name, self.n_max = name, n_max
        self.pass_s, self.min_sample_s = pass_s, min_sample_s

    def requests(self, rng: random.Random) -> list:
        return list(range(2, self.n_max + 1))

    def attempted_checks(self, out) -> int:
        return 0


class Suite(PerN):
    """``run_verification(n, n, ...)``: the ``verify`` path, one n per request."""

    unit = "law checks passed"

    def __init__(self, name: str, n_max: int, omega_max: int, extended: bool,
                 pass_s: float, min_sample_s: float):
        super().__init__(name, n_max, pass_s, min_sample_s)
        self.omega_max, self.extended = omega_max, extended

    def call(self, n: int):
        return verify.run_verification(n, n, omega_max=self.omega_max, extended=self.extended)

    def check(self, n: int, rep, refs: dict) -> int | None:
        ref = refs[self.name][str(n)]
        got = {
            "passed": dict(rep.passed),
            "violations": len(rep.violations),
            "product_form_failures": len(rep.product_form_failures),
            "same_side_degree_failures": len(rep.same_side_degree_failures),
        }
        return sum(rep.passed.values()) if got == ref else None

    def attempted_checks(self, rep) -> int:
        return sum(rep.passed.values()) + len(rep.violations)


class ClassifyRange(PerN):
    """The ``classify --format csv`` path, one n per request."""

    unit = "ticker-tape classes classified and serialized"

    def call(self, n: int):
        rep = report.classification_report(n)
        return rep["tapeCount"], report.classification_to_csv(rep)

    def check(self, n: int, out, refs: dict) -> int | None:
        count, csv = out
        ref = refs[self.name][str(n)]
        ok = count == ref["tapeCount"] and digest(csv) == ref["csv_sha256"]
        return count if ok else None


class OrbitReports:
    """In-process ``snakescroll orbit`` requests with stdout captured.

    The request set holds every independent set of C_n for n in the
    range once, with omega (1..4) and the output format drawn from the
    seed for each; each pass visits it in its own seeded order.
    """

    name = "orbit_reports"
    unit = "orbit requests"

    def __init__(self, n_min: int, n_max: int, pass_s: float, min_sample_s: float):
        self.n_min, self.n_max = n_min, n_max
        self.pass_s, self.min_sample_s = pass_s, min_sample_s

    def seeds(self) -> dict[int, list[str]]:
        return {n: sorted(cycles.enumerate_independent_sets(n))
                for n in range(self.n_min, self.n_max + 1)}

    def requests(self, rng: random.Random) -> list:
        return [(n, i, seed, rng.randint(1, 4), rng.choice(ORBIT_FORMATS))
                for n, seeds in self.seeds().items() for i, seed in enumerate(seeds)]

    def call(self, req):
        n, _i, seed, omega, fmt = req
        argv = ["orbit", "--n", str(n), "--seed", seed, "--omega", str(omega), "--format", fmt]
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self, req, out, refs: dict) -> int | None:
        n, i, _seed, omega, fmt = req
        rc, stdout = out
        packed = refs[self.name][str(n)][str(omega)][fmt]
        want = packed[16 * i: 16 * i + 16]
        return 1 if digest(f"{rc}\n{stdout}")[:16] == want else None

    def attempted_checks(self, out) -> int:
        return 0


# pass_s is a pass's normalized seconds on the host the sizes were set on;
# a run makes round(--seconds / pass_s) passes, so every run does the same
# work and the latency percentiles always fall on the same requests.
WORKLOADS = {
    "theorem_suite": Suite("theorem_suite", n_max=16, omega_max=0, extended=True,
                           pass_s=2.6, min_sample_s=0.05),
    "ouroboros_suite": Suite("ouroboros_suite", n_max=10, omega_max=12, extended=False,
                             pass_s=2.5, min_sample_s=0.05),
    "classify_range": ClassifyRange("classify_range", n_max=20, pass_s=3.5, min_sample_s=0.05),
    "orbit_reports": OrbitReports(n_min=8, n_max=10, pass_s=2.5, min_sample_s=0.0),
}


# -- the timed loop --------------------------------------------------------


class Outcome:
    """Samples of one run: which request, when, raw seconds; reference times."""

    def __init__(self) -> None:
        self.request: list[int] = []
        self.start: list[float] = []
        self.raw_s: list[float] = []
        self.ref_s: list[float] = []
        self.ref_at: list[float] = []
        self.work: dict[int, int] = {}
        self.failed = 0
        self.errors: list[str] = []
        self.checks_attempted = 0
        self.cold_cache_failures = 0

    def time_reference(self) -> None:
        self.ref_at.append(time.perf_counter())
        self.ref_s.append(time_reference())

    def factor(self, start: float, raw: float) -> float:
        """NOMINAL_REF_S over the median reference time near a sample.

        Host speed drifts over seconds, so only the reference times within
        CALIBRATION_WINDOW_S of the sample count (at least the two nearest).
        """
        lo = bisect.bisect_left(self.ref_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.ref_at, start + raw + CALIBRATION_WINDOW_S)
        near = self.ref_s[lo:hi]
        if len(near) < 2:
            mid = start + raw / 2
            nearest = sorted(range(len(self.ref_at)), key=lambda i: abs(self.ref_at[i] - mid))
            near = [self.ref_s[i] for i in nearest[:2]]
        return NOMINAL_REF_S / median(near)

    def latencies(self, normalized: bool = True) -> dict[int, float]:
        """Median seconds of each request over its repetitions."""
        per: dict[int, list[float]] = {}
        for idx, start, raw in zip(self.request, self.start, self.raw_s):
            per.setdefault(idx, []).append(raw * (self.factor(start, raw) if normalized else 1.0))
        return {idx: median(v) for idx, v in per.items()}


def run_requests(wl, requests: list, order: list[int], refs: dict, caches: CacheStats,
                 out: Outcome, min_sample_s: float) -> None:
    """Run requests[i] for i in order; check each output, time each call.

    A request faster than ``min_sample_s`` is repeated until its
    repetitions add up to that, so cheap requests get a steady median.
    The reference loop is timed first and then whenever
    CALIBRATE_EVERY_S has passed.
    """
    out.time_reference()
    last_ref = time.perf_counter()
    for idx in order:
        req = requests[idx]
        spent = 0.0
        for _rep in range(MAX_REPEATS):
            spent += run_one(wl, idx, req, refs, caches, out)
            if spent >= min_sample_s:
                break
        if time.perf_counter() - last_ref >= CALIBRATE_EVERY_S:
            out.time_reference()
            last_ref = time.perf_counter()
    out.time_reference()


def run_one(wl, idx: int, req, refs: dict, caches: CacheStats, out: Outcome) -> float:
    """One cold request: returns its raw seconds and records the outcome."""
    gc.collect()
    if not caches.cold_start():
        out.cold_cache_failures += 1
    err = None
    t0 = time.perf_counter()
    try:
        result = wl.call(req)
    except Exception as exc:  # a crash is a failed request, not a dead run
        err = exc
    dt = time.perf_counter() - t0
    caches.collect()
    work = None
    if err is None:
        out.checks_attempted += wl.attempted_checks(result)
        work = wl.check(req, result, refs)
        if work is None:
            out.errors.append(f"{req!r}: output differs from the frozen reference")
    else:
        out.errors.append(f"{req!r}: {type(err).__name__}: {err}")
    if work is None:
        out.failed += 1
    out.work.setdefault(idx, work or 0)
    out.request.append(idx)
    out.start.append(t0)
    out.raw_s.append(dt)
    return dt


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def end_to_end(out: Outcome, passes: int, normalized: bool = True) -> dict:
    """Throughput and latency percentiles from per-request median latencies.

    Each request of the set runs once per pass (cheap ones several times).
    Its latency is the median over its repetitions, so a burst of host load
    that hits one repetition is dropped; the percentiles count every
    request once per pass.
    """
    lat = out.latencies(normalized)
    samples = [v for v in lat.values() for _ in range(passes)]
    tail_s, pct = tail(samples)
    return {
        "work_per_s": sum(out.work.values()) / sum(lat.values()),
        "p50_ms": 1e3 * median(samples),
        "tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "samples": len(samples),
    }


def untraced(wl, requests: list, orders: list[list[int]], refs: dict) -> dict:
    caches = CacheStats()
    out = Outcome()
    t0 = time.perf_counter()
    for order in orders:
        run_requests(wl, requests, order, refs, caches, out, wl.min_sample_s)
    wall = time.perf_counter() - t0
    metrics = end_to_end(out, len(orders))
    raw = end_to_end(out, len(orders), normalized=False)
    return {
        "attempted": len(out.raw_s),
        "failed": out.failed,
        "errors": out.errors[:20],
        "cold_cache_failures": out.cold_cache_failures,
        "metrics": {
            "work_per_s": metrics["work_per_s"],
            "p50_ms": metrics["p50_ms"],
            "tail_ms": metrics["tail_ms"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "detail": {
            "unit_of_work": wl.unit,
            "requests_per_pass": len(requests),
            "passes": len(orders),
            "work_units_per_pass": sum(out.work.values()),
            "wall_s": wall,
            "tail_percentile": metrics["tail_percentile"],
            "samples": metrics["samples"],
            "raw": {k: raw[k] for k in ("work_per_s", "p50_ms", "tail_ms")},
            "reference_s": {"nominal": NOMINAL_REF_S, "median": median(out.ref_s),
                            "min": min(out.ref_s), "max": max(out.ref_s),
                            "count": len(out.ref_s)},
        },
    }


def traced(wl, requests: list, order: list[int], refs: dict) -> dict:
    """One untraced and one traced pass, each request run exactly once."""
    base = Outcome()
    t0 = time.perf_counter()
    run_requests(wl, requests, order, refs, CacheStats(), base, 0.0)
    untraced_wall = time.perf_counter() - t0

    originals = tracer.original_objects()
    caches = CacheStats()  # found before the wrappers hide the lru objects
    tr = tracer.Tracer()
    missing = tr.install()
    leftover = tracer.unwrapped_aliases(originals)
    out = Outcome()
    t0 = time.perf_counter()
    try:
        run_requests(wl, requests, order, refs, caches, out, 0.0)
    finally:
        traced_wall = time.perf_counter() - t0
        tr.uninstall()
    factor = NOMINAL_REF_S / median(out.ref_s)
    metrics = layer_metrics(tr, caches, out, factor)
    # each wall time in reference-loop units, so host drift between the passes cancels
    metrics["trace.overhead_ratio"] = ((traced_wall / median(out.ref_s))
                                       / (untraced_wall / median(base.ref_s)))
    write_trace(wl.name, tr)
    return {
        "attempted": len(out.raw_s),
        "failed": out.failed + base.failed,
        "errors": (base.errors + out.errors)[:20],
        "cold_cache_failures": out.cold_cache_failures + base.cold_cache_failures,
        "metrics": metrics,
        "detail": {"missing_targets": missing, "unwrapped_aliases": leftover,
                   "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                   "self_s_factor": factor, "spans": len(tr.spans),
                   "aggregate_nodes": len(tr.aggregates)},
    }


def layer_metrics(tr: tracer.Tracer, caches: CacheStats, out: Outcome, factor: float) -> dict:
    """Per-layer metrics of one traced pass; self times scaled by ``factor``.

    A layer the workload never calls reports 0 calls and 0 s; the ratios
    then report their no-waste value (1, or 0 arrangements per necklace).
    """
    summary = tr.summary()

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) * factor

    steps = calls("scroll.step")
    reads_in_steps = tracer.calls_under(tr.aggregates, tr.spans, "scroll.Scroll.tape", "scroll.step")
    builds = calls("tables.OrbitTable.live")
    returned = tr.counters.get("necklaces.returned", 0)
    tested = tracer.calls_under(tr.aggregates, tr.spans, "cyclic.canonical",
                                "necklaces.necklaces_fixed_content")
    return {
        "cycles.sweep.calls": calls("cycles.sweep"),
        "cycles.sweep.self_s": self_s("cycles.sweep"),
        "cycles.all_orbits.self_s": self_s("cycles.all_orbits"),
        "scroll.Scroll.tape.calls": calls("scroll.Scroll.tape"),
        "scroll.Scroll.tape.self_s": self_s("scroll.Scroll.tape"),
        "scroll.step.calls": steps,
        "scroll.step.self_s": self_s("scroll.step"),
        "scroll.step.useful_read_ratio": min(1.0, steps / reads_in_steps) if reads_in_steps else 1.0,
        "scroll.snakes_and_cosnakes.self_s": self_s("scroll.snakes_and_cosnakes"),
        "scroll.snakes_and_cosnakes.hit_ratio": caches.hit_ratio("snakescroll.scroll.snakes_and_cosnakes"),
        "slither.metrics_from_row.self_s": self_s("slither.metrics_from_row"),
        "tables.ouroboros_partition.self_s": self_s("tables.ouroboros_partition"),
        "tables.ouroboros_partition.hit_ratio": caches.hit_ratio("snakescroll.tables.ouroboros_partition"),
        "tables.OrbitTable.live.builds": builds,
        "tables.live.useful_ratio": len(tr.live_tables) / builds if builds else 1.0,
        "tables.swallow.self_s": self_s("tables.swallow"),
        "tables.group_invariants.self_s": self_s("tables.group_invariants"),
        "tables.is_color_preserving.self_s": self_s("tables.is_color_preserving"),
        "dsu.DisjointSet.find.calls": calls("dsu.DisjointSet.find"),
        "cyclic.canonical.self_s": self_s("cyclic.canonical"),
        "cyclic.canonical.rotation_chars": tr.counters.get("cyclic.canonical.rotation_chars", 0),
        "necklaces.necklaces_fixed_content.self_s": self_s("necklaces.necklaces_fixed_content"),
        "necklaces.arrangements_per_necklace": tested / returned if returned else 0.0,
        "classify.construct_first_row.self_s": self_s("classify.construct_first_row"),
        "classify.enumerate_ticker_tapes.self_s": self_s("classify.enumerate_ticker_tapes"),
        "sums.sum_vector.self_s": self_s("sums.sum_vector"),
        "verify.check_scroll.self_s": self_s("verify.check_scroll"),
        "verify.check_tables.self_s": self_s("verify.check_tables"),
        "verify.checks_attempted": out.checks_attempted,
        "report.orbit_report.self_s": self_s("report.orbit_report"),
        "render.ansi_table.self_s": self_s("render.ansi_table"),
        "render.svg_table.self_s": self_s("render.svg_table"),
        "cli.main.self_s": self_s("cli.main"),
    }


def write_trace(workload: str, tr: tracer.Tracer) -> None:
    """Spans and aggregates of the traced pass, under .perfbench/ in the checkout."""
    out = HERE.parent / ".perfbench"
    out.mkdir(exist_ok=True)
    payload = {
        "spans": [[sid, name, t0, t1, repr(parent)] for sid, name, t0, t1, parent in tr.spans],
        "aggregates": [[name, repr(parent), count, total]
                       for (name, parent), (count, total) in tr.aggregates.items()],
        "summary": tr.summary(),
    }
    (out / f"trace-{workload}.json").write_text(json.dumps(payload))


def passes_for(wl, seconds: int) -> int:
    return max(1, round(seconds / wl.pass_s))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    requests = wl.requests(rng)
    orders = [rng.sample(range(len(requests)), len(requests))
              for _ in range(passes_for(wl, args.seconds))]
    if args.setup_only:
        return 0
    refs = load_references()
    # Everything alive now is set-up; freezing it keeps each collection
    # during a request proportional to that request's own objects.
    gc.collect()
    gc.freeze()
    if args.trace:
        result = traced(wl, requests, orders[0], refs)
    else:
        result = untraced(wl, requests, orders, refs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
