"""Span tracing for the benchmark's traced pass, and its analysis.

Run as a script, this module is the traced process::

    python bench/spans.py TRACE_DIR MODULE [ARGS...]

It wraps the public functions in :data:`WRAPPED` -- on the module or
class that defines them and on every ``repro`` module that imported
them by name, so each caller's lookup finds the wrapper -- and then
calls ``MODULE.cli.main(ARGS)``, the same entry point
``python -m MODULE ARGS`` runs.  Each wrapped call becomes a span
(layer, start, end, parent, pid, count) kept in memory.  The process
writes its spans to ``TRACE_DIR/spans-<pid>.json`` when ``main``
returns; forked pool workers inherit the wrappers and write theirs at
exit through ``multiprocessing.util.Finalize``.  Spawned workers import
the program afresh and stay untraced.

Times are ``time.monotonic_ns``: CLOCK_MONOTONIC is system-wide on
Linux, so spans from different processes and the benchmark's own
timestamps share one timeline.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(module, attribute, layer)`` for every function the traced pass wraps.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.synthetic", "generate_trace", "workloads.tracegen"),
    ("repro.arch.machine", "TimingSimulator.__init__", "arch.construct"),
    ("repro.arch.caches", "CacheHierarchy.prime", "arch.prime"),
    ("repro.arch.machine", "TimingSimulator.run", "arch.run"),
    ("repro.arch.multicore", "simulate_multicore", "arch.multicore"),
    ("repro.harness.engine", "compute_point", "harness.point"),
    ("repro.harness.engine", "compute_salt_recipe", "harness.salt"),
    ("repro.harness.engine", "Engine.plan", "harness.plan"),
    ("repro.harness.engine", "ResultCache.get", "harness.cache.get"),
    ("repro.harness.engine", "ResultCache.put", "harness.cache.put"),
    ("repro.harness.engine", "parallel_map", "harness.pool"),
    ("repro.harness.engine", "Engine.reduce", "harness.reduce"),
    ("repro.explore.spec", "expand", "explore.expand"),
    ("repro.explore.campaign", "run_campaign", "explore.run"),
    ("repro.explore.frontier", "score_cells", "explore.score"),
    ("repro.explore.frontier", "save_frontier", "explore.frontier_save"),
    ("repro.explore.lockfile", "Lockfile.save", "explore.lockfile_save"),
)

#: Modules imported before wrapping, so that every by-name binding of a
#: wrapped function already exists when the bindings are rewritten.
_ENTRY_MODULES = (
    "repro.harness.cli",
    "repro.harness.serve",
    "repro.explore.cli",
)

#: The layer whose spans fork the worker processes: a worker's
#: outermost spans are children of the pool span that covers them.
POOL_LAYER = "harness.pool"


def _length(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


#: Per-layer work counts taken from a call's ``(args, result)``.
COUNTS: Dict[str, Callable] = {
    "workloads.tracegen": lambda args, result: _length(result),
    "arch.run": lambda args, result: _length(args[1]),
    "harness.plan": lambda args, result: _length(result),
    "harness.cache.get": lambda args, result: int(result is not None),
}


class Tracer:
    """In-memory spans of one process; a forked child starts empty."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        #: ``[layer, start_ns, end_ns, parent_index_or_-1, count]``
        self.spans: List[list] = []
        self.stack: List[int] = []

    def _adopt_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid, self.spans, self.stack = pid, [], []
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, fn: Callable, layer: str) -> Callable:
        count = COUNTS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._adopt_fork()
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, time.monotonic_ns(), 0, parent, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                tracer.stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))


def install(tracer: Tracer) -> None:
    """Wrap every :data:`WRAPPED` function where its callers look it up."""
    for name in _ENTRY_MODULES:
        importlib.import_module(name)
    for module_name, attr, layer in WRAPPED:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        wrapper = tracer.wrap(original, layer)
        setattr(owner, fn_name, wrapper)
        if owner_name:
            continue  # methods are looked up on the class
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapper)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class Span:
    layer: str
    start: int  # ns
    end: int  # ns
    pid: int
    parent: int  # index into the span list; -1 = the root
    count: int = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


ROOT = -1


def load(trace_dir: Path, root_pid: int) -> List[Span]:
    """All spans written under *trace_dir*, parents linked across processes.

    A span with no parent in its own process is a child of the root,
    or -- in a worker process -- of the :data:`POOL_LAYER` span of
    *root_pid* that covers it.
    """
    spans: List[Span] = []
    orphans: List[int] = []
    files = [json.loads(p.read_text()) for p in Path(trace_dir).glob("spans-*.json")]
    # The root process first, so every parent precedes its children.
    files.sort(key=lambda data: (data["pid"] != root_pid, data["pid"]))
    for data in files:
        base = len(spans)
        for layer, start, end, parent, count in data["spans"]:
            spans.append(
                Span(
                    layer,
                    start,
                    max(start, end),  # a span never closed counts as empty
                    data["pid"],
                    base + parent if parent >= 0 else ROOT,
                    count,
                )
            )
            if parent < 0 and data["pid"] != root_pid:
                orphans.append(len(spans) - 1)
    pools = [i for i, s in enumerate(spans) if s.pid == root_pid and s.layer == POOL_LAYER]
    for i in orphans:
        child = spans[i]
        for p in pools:
            if spans[p].start <= child.start and child.end <= spans[p].end:
                child.parent = p
                break
    return spans


def clip(spans: Sequence[Span], t0: int, t1: int) -> List[Span]:
    """*spans* cut to the window ``[t0, t1]``; spans outside it become empty."""
    return [
        Span(s.layer, min(max(s.start, t0), t1), max(min(s.end, t1), t0), s.pid, s.parent, s.count)
        for s in spans
    ]


def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other (parallel workers under one pool
    span) are merged first, so covered time is counted once.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start - covered) / 1e9)
    return out


def wall_shares(spans: Sequence[Span], t0: int, t1: int) -> Tuple[List[float], float]:
    """Split the wall time ``[t0, t1]`` among the spans; returns the
    per-span shares and the root's (unattributed) share.

    At every instant the time goes to the innermost running spans --
    those with no running child -- split evenly when several run in
    parallel (two pool workers).  The root, which covers the window,
    takes the instants when no span runs.  The shares therefore sum to
    ``t1 - t0`` exactly, up to float rounding.
    """
    spans = clip(spans, t0, t1)
    depth = [0] * len(spans)
    for i, s in enumerate(spans):  # parents precede children in the list
        depth[i] = depth[s.parent] + 1 if s.parent != ROOT else 1
    events = []
    for i, s in enumerate(spans):
        if s.end > s.start:
            # At equal times: ends before starts, inner ends first,
            # outer starts first -- so nesting is never inverted.
            events.append((s.start, 1, depth[i], i))
            events.append((s.end, 0, -depth[i], i))
    events.sort()
    shares = [0.0] * len(spans)
    root_share = 0.0
    running_children: Dict[int, int] = {ROOT: 0}
    attached: Dict[int, int] = {}
    leaves = {ROOT}
    now = t0
    for t, is_start, _, i in events:
        if t > now:
            piece = (t - now) / 1e9 / len(leaves)
            for leaf in leaves:
                if leaf == ROOT:
                    root_share += piece
                else:
                    shares[leaf] += piece
            now = t
        if is_start:
            parent = spans[i].parent if spans[i].parent in running_children else ROOT
            attached[i] = parent
            running_children[i] = 0
            running_children[parent] += 1
            leaves.discard(parent)
            leaves.add(i)
        else:
            parent = attached.pop(i)
            leaves.discard(i)
            del running_children[i]
            running_children[parent] -= 1
            if running_children[parent] == 0:
                leaves.add(parent)
    if t1 > now:
        root_share += (t1 - now) / 1e9
    return shares, root_share


#: The metric that reports each layer's share of the traced wall time.
#: Together with ``trace.unattributed_s`` they sum to ``trace.wall_s``.
SHARE_METRIC: Dict[str, str] = {
    "workloads.tracegen": "workloads.tracegen.self_s",
    "arch.construct": "arch.construct.self_s",
    "arch.prime": "arch.prime.self_s",
    "arch.run": "arch.run.self_s",
    "arch.multicore": "arch.multicore.self_s",
    "harness.point": "harness.point.self_s",
    "harness.salt": "harness.salt.self_s",
    "harness.plan": "harness.plan.self_s",
    "harness.cache.get": "harness.cache.get_self_s",
    "harness.cache.put": "harness.cache.put_self_s",
    "harness.pool": "harness.pool.overhead_s",
    "harness.reduce": "harness.reduce.self_s",
    "explore.expand": "explore.expand_s",
    "explore.run": "explore.run_self_s",
    "explore.score": "explore.score_s",
    "explore.frontier_save": "explore.frontier_save_s",
    "explore.lockfile_save": "explore.lockfile_save_s",
}


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: Sequence[Span], t0: int, t1: int, jobs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over the window ``[t0, t1]``.

    ``*.self_s`` (and the other :data:`SHARE_METRIC` names) are wall
    shares from :func:`wall_shares`; ``events_per_s`` divides work by
    the layer's summed self time across processes, i.e. per worker;
    ``harness.point_s`` percentiles are per-point durations.
    """
    shares, unattributed = wall_shares(spans, t0, t1)
    window = clip(spans, t0, t1)
    own = self_seconds(window)
    by_layer: Dict[str, List[int]] = {}
    for i, s in enumerate(window):
        if s.end > s.start:
            by_layer.setdefault(s.layer, []).append(i)

    def calls(layer: str) -> float:
        return float(len(by_layer.get(layer, ())))

    def count(layer: str) -> float:
        return float(sum(window[i].count for i in by_layer.get(layer, ())))

    def rate(layer: str) -> float:
        busy = sum(own[i] for i in by_layer.get(layer, ()))
        return count(layer) / busy if busy else 0.0

    points = [window[i].seconds for i in by_layer.get("harness.point", ())]
    pool_wall = sum(window[i].seconds for i in by_layer.get("harness.pool", ()))
    gets = calls("harness.cache.get")
    metrics = {
        name: sum(shares[i] for i in by_layer.get(layer, ()))
        for layer, name in SHARE_METRIC.items()
    }
    metrics.update({
        "workloads.tracegen.calls": calls("workloads.tracegen"),
        "workloads.tracegen.events": count("workloads.tracegen"),
        "workloads.tracegen.events_per_s": rate("workloads.tracegen"),
        "arch.construct.calls": calls("arch.construct"),
        "arch.prime.calls": calls("arch.prime"),
        "arch.run.calls": calls("arch.run"),
        "arch.run.events": count("arch.run"),
        "arch.run.events_per_s": rate("arch.run"),
        "harness.point_s.p50": percentile(points, 50),
        "harness.point_s.p90": percentile(points, 90),
        "harness.plan.points": count("harness.plan"),
        "harness.cache.get_calls": gets,
        "harness.cache.hit_ratio": count("harness.cache.get") / gets if gets else 0.0,
        "harness.cache.put_calls": calls("harness.cache.put"),
        "harness.pool.wall_s": pool_wall,
        "harness.pool.busy_frac": sum(points) / (jobs * pool_wall) if pool_wall else 0.0,
        "trace.wall_s": (t1 - t0) / 1e9,
        "trace.unattributed_s": unattributed,
    })
    return metrics


def main(argv: Sequence[str]) -> None:
    trace_dir, module = Path(argv[0]), argv[1]
    tracer = Tracer(trace_dir)
    install(tracer)
    entry = importlib.import_module(f"{module}.cli").main
    try:
        entry(list(argv[2:]))
    finally:
        tracer.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
