"""Span tracer that wraps snakescroll's public functions from outside.

Each wrapped function records a span (id, name, start, end, parent) per
call.  Functions called hundreds of thousands of times per pass are
"hot": their calls are aggregated per (name, parent) as a count plus a
time sum, because one record per call would not fit in memory.  A hot
call's parent key is the parent span id, or the parent's own aggregate
key when a hot function calls another one (``Scroll.tape`` inside a
step).

The wrappers are installed by rebinding every alias of the original
object: module globals that imported it by name, the package's
re-exports and class attributes.  ``OrbitTable.live`` is a
``cached_property``, so its underlying function is swapped instead.

Self time of a span is its duration minus the time covered by its
direct children (spans and aggregates whose parent it is).
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

PACKAGE = "snakescroll"

# (metric name, module, attribute path, hot).  Several targets may share a
# metric name: their calls and times are summed under it.
TARGETS = [
    ("cycles.sweep", "cycles", "sweep", True),
    ("cycles.all_orbits", "cycles", "all_orbits", False),
    ("scroll.Scroll.tape", "scroll", "Scroll.tape", True),
    ("scroll.step", "scroll", "Scroll.successor_step", True),
    ("scroll.step", "scroll", "Scroll.co_successor_step", True),
    ("scroll.step", "scroll", "Scroll.predecessor_step", True),
    ("scroll.step", "scroll", "Scroll.co_predecessor_step", True),
    ("scroll.snakes_and_cosnakes", "scroll", "snakes_and_cosnakes", False),
    ("slither.metrics_from_row", "slither", "metrics_from_row", False),
    ("tables.ouroboros_partition", "tables", "ouroboros_partition", False),
    ("tables.OrbitTable.live", "tables", "OrbitTable.live", False),
    ("tables.swallow", "tables", "swallow", False),
    ("tables.swallow", "tables", "co_swallow", False),
    ("tables.group_invariants", "tables", "group_invariants", False),
    ("tables.is_color_preserving", "tables", "is_color_preserving", False),
    ("dsu.DisjointSet.find", "dsu", "DisjointSet.find", True),
    ("cyclic.canonical", "cyclic", "canonical", True),
    ("necklaces.necklaces_fixed_content", "necklaces", "necklaces_fixed_content", False),
    ("classify.construct_first_row", "classify", "construct_first_row", False),
    ("classify.enumerate_ticker_tapes", "classify", "enumerate_ticker_tapes", False),
    ("sums.sum_vector", "sums", "sum_vector", False),
    ("verify.check_scroll", "verify", "check_scroll", False),
    ("verify.check_tables", "verify", "check_tables", False),
    ("report.orbit_report", "report", "orbit_report", False),
    ("render.ansi_table", "render", "ansi_table", False),
    ("render.svg_table", "render", "svg_table", False),
    ("cli.main", "cli", "main", False),
]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    ROOT = 0

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, object]] = []
        self.aggregates: dict[tuple, list] = {}
        self.stack: list[object] = [self.ROOT]
        self.counters: dict[str, int] = defaultdict(int)
        self.live_tables: set = set()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name: str, fn, on_result=None):
        stack, spans, ids, clock = self.stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def hot_wrapper(self, name: str, fn, on_call=None):
        stack, aggregates, clock = self.stack, self.aggregates, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1])
            stack.append(key)
            if on_call is not None:
                on_call(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = aggregates.get(key)
                if rec is None:
                    aggregates[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    # -- installation -----------------------------------------------------

    def _hooks(self, name: str):
        counters = self.counters
        if name == "cyclic.canonical":
            def on_call(args):
                counters["cyclic.canonical.rotation_chars"] += len(args[0]) ** 2
            return {"on_call": on_call}
        if name == "necklaces.necklaces_fixed_content":
            def on_result(args, result):
                counters["necklaces.returned"] += len(result)
            return {"on_result": on_result}
        if name == "tables.OrbitTable.live":
            def on_result(args, result):
                self.live_tables.add(args[0])
            return {"on_result": on_result}
        return {}

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names of missing ones."""
        missing = []
        for name, module_name, path, hot in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr = resolve(module, path)
            if owner is None:
                missing.append(f"{module_name}.{path}")
                continue
            make = self.hot_wrapper if hot else self.span_wrapper
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, functools.cached_property):
                self._swap(raw, "func", make(name, raw.func, **self._hooks(name)))
                continue
            wrapped = make(name, raw, **self._hooks(name))
            if isinstance(owner, type):
                self._swap(owner, attr, wrapped)
            else:
                for mod in package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._swap(mod, key, wrapped)
        return missing

    def _swap(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.spans, self.aggregates)


def package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def resolve(module, path: str):
    """(owner, attribute) for a dotted path inside a module, or (None, None)."""
    if module is None:
        return None, None
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if present else (None, None)


def original_objects() -> dict[str, object]:
    """The module-level objects the wrappers replace, by target path."""
    objs = {}
    for _name, module_name, path, _hot in TARGETS:
        owner, attr = resolve(sys.modules.get(f"{PACKAGE}.{module_name}"), path)
        if owner is not None and not isinstance(owner, type):
            objs[f"{module_name}.{path}"] = getattr(owner, attr)
    return objs


def unwrapped_aliases(originals: dict[str, object]) -> list[str]:
    """Module attributes that still hold one of the original objects."""
    left = []
    ids = {id(obj): name for name, obj in originals.items()}
    for mod in package_modules():
        for key, value in vars(mod).items():
            if id(value) in ids:
                left.append(f"{mod.__name__}.{key}")
    return left


def summarize(spans, aggregates) -> dict[str, dict[str, float]]:
    """Per-name calls, total and self seconds from spans and aggregates.

    ``spans`` holds (id, name, start, end, parent) records and
    ``aggregates`` maps (name, parent) to [count, seconds].  A node's self
    time is its duration minus the durations of its direct children.
    """
    covered: dict[object, float] = defaultdict(float)
    for _sid, _name, t0, t1, parent in spans:
        covered[parent] += t1 - t0
    for key, (_count, total) in aggregates.items():
        covered[key[1]] += total
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, _parent in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - covered.get(sid, 0.0)
    for key, (count, total) in aggregates.items():
        rec = out[key[0]]
        rec["calls"] += count
        rec["total_s"] += total
        rec["self_s"] += total - covered.get(key, 0.0)
    return dict(out)


def calls_under(aggregates, spans, name: str, parent_name: str) -> int:
    """Aggregated calls of ``name`` whose direct parent is a ``parent_name`` node."""
    parent_ids = {sid for sid, n, *_ in spans if n == parent_name}
    total = 0
    for (n, parent), (count, _t) in aggregates.items():
        if n != name:
            continue
        if parent in parent_ids or (isinstance(parent, tuple) and parent[0] == parent_name):
            total += count
    return total
