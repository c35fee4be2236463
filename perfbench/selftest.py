"""Self-tests of the benchmark's tracer and cold-cache guard.

    python3 perfbench/selftest.py

Stdlib ``unittest`` only; imports snakescroll from ``src/``.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (puts src/ on sys.path)
import tracer  # noqa: E402
from snakescroll import report, scroll, tables, verify  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root span 1 [0, 10] holds spans 2 [1, 4] and 3 [5, 6], 100 hot calls
        # taking 2.0 s (of which 300 nested hot2 calls take 0.5 s); span 2
        # holds 10 hot calls taking 1.0 s.
        spans = [(2, "b", 1.0, 4.0, 1), (3, "c", 5.0, 6.0, 1), (1, "a", 0.0, 10.0, 0)]
        aggregates = {
            ("hot", 1): [100, 2.0],
            ("hot2", ("hot", 1)): [300, 0.5],
            ("hot", 2): [10, 1.0],
        }
        got = tracer.summarize(spans, aggregates)
        self.assertAlmostEqual(got["a"]["self_s"], 10 - 3 - 1 - 2.0)
        self.assertAlmostEqual(got["b"]["self_s"], 3 - 1.0)
        self.assertAlmostEqual(got["c"]["self_s"], 1.0)
        self.assertEqual(got["hot"]["calls"], 110)
        self.assertAlmostEqual(got["hot"]["total_s"], 3.0)
        self.assertAlmostEqual(got["hot"]["self_s"], (2.0 - 0.5) + 1.0)
        self.assertAlmostEqual(got["hot2"]["self_s"], 0.5)
        self.assertEqual(tracer.calls_under(aggregates, spans, "hot2", "hot"), 300)
        self.assertEqual(tracer.calls_under(aggregates, spans, "hot", "b"), 10)

    def test_recorded_tree_matches_wall_time(self):
        tr = tracer.Tracer()
        inner = tr.hot_wrapper("inner", lambda x: x + 1)
        outer = tr.span_wrapper("outer", lambda n: sum(inner(i) for i in range(n)))
        outer(1000)
        got = tr.summary()
        self.assertEqual(got["inner"]["calls"], 1000)
        self.assertEqual(got["outer"]["calls"], 1)
        total = got["outer"]["total_s"]
        self.assertAlmostEqual(got["outer"]["self_s"] + got["inner"]["self_s"], total, places=9)


class Wrappers(unittest.TestCase):
    def test_every_alias_is_rebound_and_restored(self):
        originals = tracer.original_objects()
        live_func = tables.OrbitTable.__dict__["live"].func
        tr = tracer.Tracer()
        missing = tr.install()
        try:
            self.assertEqual(missing, [])
            self.assertEqual(tracer.unwrapped_aliases(originals), [])
            wrapped = scroll.snakes_and_cosnakes
            self.assertIsNot(wrapped, originals["scroll.snakes_and_cosnakes"])
            for mod in (verify, tables, report):
                self.assertIs(mod.snakes_and_cosnakes, wrapped)
            self.assertIsNot(tables.OrbitTable.__dict__["live"].func, live_func)
            verify.run_verification(5, 5, omega_max=2)
            summary = tr.summary()
            for name in ("scroll.snakes_and_cosnakes", "tables.OrbitTable.live",
                         "scroll.Scroll.tape", "verify.check_tables"):
                self.assertGreater(summary[name]["calls"], 0, name)
        finally:
            tr.uninstall()
        self.assertIs(scroll.snakes_and_cosnakes, originals["scroll.snakes_and_cosnakes"])
        self.assertIs(verify.snakes_and_cosnakes, originals["scroll.snakes_and_cosnakes"])
        self.assertIs(tables.OrbitTable.__dict__["live"].func, live_func)


class Repeatability(unittest.TestCase):
    EXACT = ("scroll.Scroll.tape.calls", "scroll.step.calls", "cycles.sweep.calls",
             "dsu.DisjointSet.find.calls", "cyclic.canonical.rotation_chars",
             "tables.OrbitTable.live.builds", "verify.checks_attempted")

    def traced_counts(self, name: str, requests: list) -> dict:
        wl = workloads.WORKLOADS[name]
        refs = workloads.load_references()
        result = workloads.traced(wl, requests, list(range(len(requests))), refs)
        self.assertEqual(result["failed"], 0, result["errors"])
        self.assertEqual(result["cold_cache_failures"], 0)
        return {k: result["metrics"][k] for k in self.EXACT}

    def test_exact_counts_repeat(self):
        orbit = workloads.WORKLOADS["orbit_reports"].requests(random.Random(1))[::40]
        for name, requests in (("theorem_suite", [9, 7]), ("ouroboros_suite", [6]),
                               ("classify_range", [14, 12]), ("orbit_reports", orbit)):
            first = self.traced_counts(name, requests)
            self.assertEqual(first, self.traced_counts(name, requests), name)
            self.assertGreater(sum(first.values()), 0, name)


class ColdCaches(unittest.TestCase):
    def test_cold_start_clears_the_named_caches(self):
        caches = workloads.CacheStats()
        self.assertIn("snakescroll.scroll.snakes_and_cosnakes", caches.caches)
        self.assertIn("snakescroll.tables.ouroboros_partition", caches.caches)
        verify.run_verification(6, 6, omega_max=2)
        self.assertGreater(scroll.snakes_and_cosnakes.cache_info().hits, 0)
        self.assertTrue(caches.cold_start())
        self.assertEqual(scroll.snakes_and_cosnakes.cache_info().hits, 0)
        self.assertEqual(tables.ouroboros_partition.cache_info().hits, 0)


if __name__ == "__main__":
    unittest.main()
