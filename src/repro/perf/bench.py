"""The benchmark registry: micro- and end-to-end perf measurements.

Every benchmark is a named callable registered with :func:`bench`; it
receives a :class:`BenchConfig` (quick vs. full sizing) and returns a
:class:`BenchResult`.  The CLI (``python -m repro.perf``) runs them,
emits a machine-readable JSON document with git/config provenance, and
gates regressions against a base tree run in alternating pairs.

Throughput benchmarks (events/sec, ops/sec) are best-of-N over a fixed
seed.  The host's speed still drifts between processes, so the gate
compares per-pair ratios, never values taken at different times (see
``repro.perf.cli``).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from typing import Callable, Dict, List, Optional

from repro.perf.timers import best_of

#: Default trace sizes; ``--quick`` (CI) uses the smaller set.  Quick
#: sizes keep every gated benchmark's best repetition above 50 ms so the
#: regression gate measures the code, not timer noise: the floor was
#: 63 ms (``tracegen.synthetic``; ``machine.run.baseline`` 71 ms) on a
#: 2-vCPU x86-64 host, where one quick suite runs in about 6 s.
_FULL = {"n_insts": 600_000, "queue_ops": 400_000, "reps": 3, "harness_n": 6_000}
_QUICK = {"n_insts": 300_000, "queue_ops": 200_000, "reps": 5, "harness_n": 2_000}

_BENCH_APP = "astar"
_BENCH_SEED = 3


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """Sizing knobs every benchmark sees."""

    quick: bool = False
    reps: Optional[int] = None

    def size(self, key: str) -> int:
        table = _QUICK if self.quick else _FULL
        if key == "reps" and self.reps is not None:
            return self.reps
        return table[key]


@dataclasses.dataclass
class BenchResult:
    """One benchmark's measurement."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    seconds: float  # best-of-N wall clock of one measured repetition
    reps: int
    #: Whether the CI regression gate compares this benchmark.  False
    #: for measurements too short or too variable to gate reliably
    #: (they are still recorded for trend inspection).
    gated: bool = True
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


BENCHMARKS: Dict[str, Callable[[BenchConfig], BenchResult]] = {}


def bench(name: str):
    """Register a benchmark under *name* (registry decorator)."""

    def register(fn):
        BENCHMARKS[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
def _machine():
    from repro.arch.config import skylake_machine

    return skylake_machine(scaled=True)


def _trace(n_insts: int, instrument: Optional[str] = "pruned"):
    """Fixed-seed packed benchmark trace."""
    from repro.workloads.profiles import PROFILES
    from repro.workloads.synthetic import generate_trace

    return generate_trace(
        PROFILES[_BENCH_APP], n_insts, seed=_BENCH_SEED, instrument=instrument,
        packed=True,
    )


def _events_per_sec(scheme_factory, config: BenchConfig, name: str) -> BenchResult:
    from repro.arch.machine import TimingSimulator
    from repro.workloads.profiles import PROFILES
    from repro.workloads.synthetic import prime_ranges

    n_insts = config.size("n_insts")
    reps = config.size("reps")
    machine = _machine()
    trace = _trace(n_insts)
    prime = prime_ranges(PROFILES[_BENCH_APP])
    n_events = len(trace)

    def run():
        sim = TimingSimulator(machine, scheme_factory())
        sim.hier.prime(list(prime))
        return sim.run(trace)

    seconds, stats = best_of(run, reps)
    return BenchResult(
        name=name,
        value=n_events / seconds,
        unit="events/sec",
        higher_is_better=True,
        seconds=seconds,
        reps=reps,
        meta={
            "n_events": n_events,
            "n_insts": n_insts,
            "app": _BENCH_APP,
            "seed": _BENCH_SEED,
            "scheme": scheme_factory().name,
            "cycles": stats.cycles,
        },
    )


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------
@bench("machine.run.cwsp")
def bench_machine_cwsp(config: BenchConfig) -> BenchResult:
    """End-to-end hot path: cwsp (persist path + RBT + WPQ delays)."""
    from repro.schemes import cwsp

    return _events_per_sec(cwsp, config, "machine.run.cwsp")


@bench("machine.run.baseline")
def bench_machine_baseline(config: BenchConfig) -> BenchResult:
    """End-to-end hot path: baseline (cache hierarchy only)."""
    from repro.schemes import baseline

    return _events_per_sec(baseline, config, "machine.run.baseline")


@bench("machine.run.capri")
def bench_machine_capri(config: BenchConfig) -> BenchResult:
    """End-to-end hot path: capri (line coalescing, big PB)."""
    from repro.schemes import capri

    return _events_per_sec(capri, config, "machine.run.capri")


@bench("machine.run_multicore")
def bench_machine_multicore(config: BenchConfig) -> BenchResult:
    """Fused multicore loop: 8 cwsp cores over packed SPLASH traces."""
    from repro.arch.multicore import MulticoreSimulator
    from repro.perf.timers import Stopwatch
    from repro.schemes import cwsp
    from repro.workloads.profiles import PROFILES
    from repro.workloads.synthetic import generate_trace, prime_ranges

    n_cores = 8
    per_core = max(1, config.size("n_insts") // n_cores)
    reps = config.size("reps")
    machine = _machine()
    apps = ["radix", "fft", "lu-cg", "ocg", "water-ns", "cholesky", "oncg", "lu-ncg"]
    traces = [
        generate_trace(
            PROFILES[a], per_core, seed=i, instrument="pruned", packed=True
        )
        for i, a in enumerate(apps)
    ]
    prime = [r for a in apps for r in prime_ranges(PROFILES[a])]
    n_events = sum(len(t) for t in traces)

    # Best-of-N seconds of the scheduling loop alone: simulator
    # construction and cache priming stay outside the stopwatch.
    seconds = None
    stats = None
    first = None
    for _ in range(reps):
        sim = MulticoreSimulator(machine, cwsp(), n_cores)
        sim.prime(prime)
        with Stopwatch() as sw:
            stats = sim.run(traces)
        if seconds is None or sw.seconds < seconds:
            seconds = sw.seconds
        # Value-identity guard at benchmark scale: every rep must merge
        # to the first rep's stats.  A divergence fails the perf job,
        # not just the unit suite.
        merged = stats.merged().to_dict()
        if first is None:
            first = merged
        elif merged != first:
            raise AssertionError("multicore reps diverged from the first rep")
    return BenchResult(
        name="machine.run_multicore",
        value=n_events / seconds,
        unit="events/sec",
        higher_is_better=True,
        seconds=seconds,
        reps=reps,
        meta={
            "n_events": n_events,
            "n_cores": n_cores,
            "per_core_insts": per_core,
            "apps": apps,
            "seed0": 0,
            "scheme": "cWSP",
            "cycles": stats.cycles,
        },
    )


#: The single-class streams of ``machine.event_classes``: each class's
#: event code and the address of its i-th event, for an L1 of ``l1``
#: and an L2 of ``l2`` bytes.  Hits cycle over 8 lines; L1 misses sweep
#: 4x the L1 in line steps, so LRU evicts every line before its reuse
#: (they hit L2); L2 misses sweep 4x the L2, so once the L2 fills each
#: one evicts from a full set (they hit the DRAM cache).
_EVENT_CLASSES = {
    "alu": ("a", lambda i, l1, l2: 0),
    "load_l1_hit": ("l", lambda i, l1, l2: (i % 8) << 6),
    "load_l1_miss": ("l", lambda i, l1, l2: (i << 6) % (4 * l1)),
    "load_l2_miss": ("l", lambda i, l1, l2: (i << 6) % (4 * l2)),
    "store_persisted": ("s", lambda i, l1, l2: (i % 8) << 6),
    "boundary": ("b", lambda i, l1, l2: 0),
    "fence": ("f", lambda i, l1, l2: 0),
}


@bench("machine.event_classes")
def bench_event_classes(config: BenchConfig) -> BenchResult:
    """Loop cost per event class: ns/event of single-class cwsp streams."""
    from repro.arch.machine import TimingSimulator
    from repro.arch.trace import PackedTrace
    from repro.perf.timers import Stopwatch
    from repro.schemes import cwsp

    # 20k events per class at --quick, so that seven classes times N
    # repetitions stay a small share of the suite's run time.
    n = config.size("n_insts") // 15
    reps = config.size("reps")
    machine = _machine()
    l1_bytes, l2_bytes = (c.size_bytes for c in machine.caches[:2])
    ns_per_event: Dict[str, float] = {}
    seconds = 0.0
    for name, (code, addr) in _EVENT_CLASSES.items():
        trace = PackedTrace(code * n, [addr(i, l1_bytes, l2_bytes) for i in range(n)])
        # Best-of-N seconds of the loop alone: construction stays out.
        best = None
        for _ in range(reps):
            sim = TimingSimulator(machine, cwsp())
            with Stopwatch() as sw:
                sim.run(trace)
            if best is None or sw.seconds < best:
                best = sw.seconds
        ns_per_event[name] = best / n * 1e9
        seconds += best
    # One number per class is the point; the value is their mean, and
    # single-class streams are too short and too uneven to gate (a
    # store-only stream keeps the PB full, so it times full admits).
    return BenchResult(
        name="machine.event_classes",
        value=sum(ns_per_event.values()) / len(ns_per_event),
        unit="ns/event",
        higher_is_better=False,
        seconds=seconds,
        reps=reps,
        gated=False,
        meta={"ns_per_event": ns_per_event, "n_events": n, "scheme": "cwsp"},
    )


@bench("queues.ops")
def bench_queue_ops(config: BenchConfig) -> BenchResult:
    """CompletionQueue admit+push+advance throughput (the WPQ pattern)."""
    from repro.arch.queues import CompletionQueue

    n = config.size("queue_ops")
    reps = config.size("reps")

    def run():
        q = CompletionQueue(24)
        admit = q.admit
        push = q.push
        t = 0.0
        for i in range(n):
            t = admit(t + 0.25)
            push(t + 40.0)
        return q

    seconds, q = best_of(run, reps)
    return BenchResult(
        name="queues.ops",
        value=n / seconds,
        unit="ops/sec",
        higher_is_better=True,
        seconds=seconds,
        reps=reps,
        meta={"n_ops": n, "capacity": 24, "pushes": q.pushes},
    )


@bench("tracegen.synthetic")
def bench_tracegen(config: BenchConfig) -> BenchResult:
    """Workload event-generation throughput (instrumented stream)."""
    # Generation is about 2x faster than the baseline simulation and
    # 4x faster than cwsp (10M vs 4.4M and 2.4M events/s at --quick
    # sizes on a 2-vCPU x86-64 host), so double the stream length to
    # keep the measured interval above timer and scheduler noise.
    n_insts = 2 * config.size("n_insts")
    reps = config.size("reps")
    seconds, trace = best_of(lambda: _trace(n_insts), reps)
    return BenchResult(
        name="tracegen.synthetic",
        value=len(trace) / seconds,
        unit="events/sec",
        higher_is_better=True,
        seconds=seconds,
        reps=reps,
        meta={"n_events": len(trace), "n_insts": n_insts, "app": _BENCH_APP},
    )


def _harness_seconds(config: BenchConfig, warm: bool) -> BenchResult:
    """Wall-clock of one harness experiment, cold or warm cache."""
    from repro.harness.engine import Engine, ResultCache
    from repro.harness.figures import SPECS

    spec = next(s for s in SPECS.values() if s.simulates)
    n_insts = config.size("harness_n")
    tmp = tempfile.mkdtemp(prefix="repro-perf-cache-")
    name = f"harness.{'warm' if warm else 'cold'}"
    try:
        def run():
            engine = Engine(cache=ResultCache(tmp), n_insts=n_insts)
            return engine.run([spec])

        if warm:
            run()  # populate the on-disk cache once
            seconds, _ = best_of(run, config.size("reps"))
            reps = config.size("reps")
        else:
            # Cold must clear the cache before every repetition.
            def cold():
                shutil.rmtree(tmp, ignore_errors=True)
                return run()

            seconds, _ = best_of(cold, 1)
            reps = 1
        # A warm (fully cached) run finishes in tens of milliseconds --
        # far too short to gate against host noise, so only the cold
        # run participates in the regression gate.
        return BenchResult(
            name=name,
            value=seconds,
            unit="seconds",
            higher_is_better=False,
            seconds=seconds,
            reps=reps,
            gated=not warm,
            meta={"experiment": spec.name, "n_insts": n_insts},
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@bench("harness.cold")
def bench_harness_cold(config: BenchConfig) -> BenchResult:
    """One experiment end-to-end with an empty result cache."""
    return _harness_seconds(config, warm=False)


@bench("harness.warm")
def bench_harness_warm(config: BenchConfig) -> BenchResult:
    """Same experiment served entirely from the on-disk cache."""
    return _harness_seconds(config, warm=True)


def run_benchmarks(
    config: BenchConfig,
    names: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, BenchResult]:
    """Run the selected (default: all) benchmarks in registry order."""
    say = progress if progress is not None else lambda _msg: None
    selected = list(BENCHMARKS) if not names else names
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; choose from {list(BENCHMARKS)}"
        )
    results: Dict[str, BenchResult] = {}
    for name in selected:
        say(f"bench: {name} ...")
        result = BENCHMARKS[name](config)
        results[name] = result
        say(f"bench: {name} = {result.value:,.0f} {result.unit}")
    return results
