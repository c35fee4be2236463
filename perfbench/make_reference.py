"""Freeze the benchmark's reference outputs from the current ``src/``.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: per-n verification outcomes for the
two suites, per-n tape counts and CSV digests for ``classify_range``, and
for ``orbit_reports`` the first 16 hex digits of the SHA-256 of
``"<exit code>\\n<stdout>"`` for every (n, seed, omega, format) a run can
draw, packed per (n, omega, format) in sorted seed order.

The references were frozen once, at the commit that added the
benchmark; regenerating them on a later commit would hide any change in
behaviour that the benchmark is meant to catch.
"""

from __future__ import annotations

import json
import sys

import workloads as w


def main() -> int:
    caches = w.CacheStats()
    out: dict = {}
    for name in ("theorem_suite", "ouroboros_suite"):
        wl = w.WORKLOADS[name]
        out[name] = {}
        for n in range(2, wl.n_max + 1):
            caches.cold_start()
            rep = wl.call(n)
            if rep.violations:
                raise SystemExit(f"{name} n={n}: {rep.violations[:3]}")
            out[name][str(n)] = {
                "passed": dict(sorted(rep.passed.items())),
                "violations": 0,
                "product_form_failures": len(rep.product_form_failures),
                "same_side_degree_failures": len(rep.same_side_degree_failures),
            }
    wl = w.WORKLOADS["classify_range"]
    out[wl.name] = {}
    for n in range(2, wl.n_max + 1):
        count, csv = wl.call(n)
        out[wl.name][str(n)] = {"tapeCount": count, "csv_sha256": w.digest(csv)}
    wl = w.WORKLOADS["orbit_reports"]
    out[wl.name] = {}
    for n, seeds in wl.seeds().items():
        per_n = out[wl.name][str(n)] = {}
        for omega in range(1, 5):
            per_n[str(omega)] = {}
            for fmt in w.ORBIT_FORMATS:
                packed = []
                for i, seed in enumerate(seeds):
                    caches.cold_start()
                    rc, stdout = wl.call((n, i, seed, omega, fmt))
                    if rc != 0:
                        raise SystemExit(f"orbit n={n} seed={seed} omega={omega} {fmt}: exit {rc}")
                    packed.append(w.digest(f"{rc}\n{stdout}")[:16])
                per_n[str(omega)][fmt] = "".join(packed)
    (w.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
