"""Benchmark entry point for snakescroll.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is the pure-Python package
under ``src/``; nothing is built.  The workload itself runs in a fresh
interpreter (``workloads.py``) with ``PYTHONHASHSEED`` pinned and
``SNAKE_SCROLL_THREADS`` removed, so ``verify`` never switches to its
thread pool.

Set-up time is the median over several fresh interpreters that import
snakescroll and build the workload's requests, scaled by the same
reference loop the workload process uses for its timings.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  The
line before it holds the raw seconds, reference-loop seconds, percentile
and sample counts behind them and the host they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 150
PINNED_HASH_SEED = "0"

sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_REF_S, time_reference  # noqa: E402


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SNAKE_SCROLL_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = PINNED_HASH_SEED
    return env


def child(args, extra: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(args) -> dict:
    raw, refs = [], [time_reference()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = child(args, ["--setup-only"])
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        refs.append(time_reference())
    return {"raw_s": raw, "reference_s": refs}


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "pythonhashseed": PINNED_HASH_SEED}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "snakescroll" / "__init__.py").is_file():
        print("run.py: no src/snakescroll in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup(args)
    proc = child(args, [])
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    section = "per_layer" if args.trace else "end_to_end"
    detail = dict(result["detail"], host=host(), workload=args.workload, seed=args.seed,
                  errors=result["errors"], cold_cache_failures=result["cold_cache_failures"],
                  error_rate=result["failed"] / result["attempted"])
    if setup is not None:
        ref = statistics.median(setup["reference_s"])
        metrics["setup_s"] = statistics.median(setup["raw_s"]) * NOMINAL_REF_S / ref
        detail["setup"] = dict(setup, runs=SETUP_RUNS, raw_median_s=statistics.median(setup["raw_s"]))

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    if "unit_of_work" in detail:
        print(f"{args.workload}: work is {detail['unit_of_work']}; tail_ms is the "
              f"p{detail['tail_percentile']:.1f} of {detail['samples']} samples")
    print(f"{args.workload} error_rate = {detail['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} requests failed)")
    print(json.dumps({"detail": detail}))
    correct = (result["failed"] == 0 and result["cold_cache_failures"] == 0
               and not detail.get("unwrapped_aliases"))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
