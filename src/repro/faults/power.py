"""Intermittent-power execution over the timing simulator.

The fault campaigns in this package attack *architectural* state
(cuts, torn persists, corrupted logs) at the IR level.  This module
models the *timing* consequence of running on unreliable power -- the
WSP deployment story: power arrives in on-intervals (a
:class:`PowerTrace`), volatile state (caches, queues, the core clock)
dies at every failure, and a scheme resumes from its last durable
region boundary after paying a fixed recovery cost *in cycles*.

Built directly on the checkpoint layer's cut primitive
(:meth:`TimingSimulator.run_until` with a boundary log, the same fused
event loop every simulation runs): each on-interval commits the trace
from the durable cursor with a cycle budget, and the boundary log --
``(next_event_index, prev_region_complete)`` pairs -- tells exactly
which prefix of the stream had persisted when the power died.  Schemes that persist
nothing (the baseline) never advance the durable cursor, so they make
forward progress only if the whole run fits one interval: the
paper's motivation, measured.

``python -m repro.faults --power-trace`` sweeps duty cycles and
interval lengths across schemes and fails (exit 1) on model-invariant
violations.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Module-level on purpose: the harness imports this module only inside
# the ``intermittent`` reducer, so numpy stays off its start-up path.
import numpy as np

from repro.arch.config import MachineConfig, skylake_machine
from repro.arch.machine import TimingSimulator, simulate
from repro.arch.scheme import Scheme
from repro.arch.trace import as_packed

#: Consecutive no-progress intervals before a run is declared stalled.
STALL_LIMIT = 8


@dataclass(frozen=True)
class PowerTrace:
    """A stochastic power supply: how long the machine stays up.

    ``on_cycles`` is the mean powered-interval length in core cycles;
    ``duty`` the fraction of wall-clock time with power (off-time
    stretches the wall clock but costs no execution); ``jitter`` a
    uniform +/- fraction applied per interval; ``recovery_cycles`` the
    fixed cost, paid at the start of every power-up after the first,
    of restoring the durable image before useful execution resumes --
    costed in cycles, the timing simulator's native unit.
    """

    on_cycles: float
    duty: float = 0.5
    jitter: float = 0.2
    recovery_cycles: float = 200.0
    seed: int = 0

    def intervals(self) -> Iterator[float]:
        """Infinite stream of on-interval lengths (deterministic)."""
        rng = np.random.default_rng(self.seed * 9_000_011 + 41)
        while True:
            if self.jitter > 0:
                yield self.on_cycles * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
            else:
                yield self.on_cycles


@dataclass
class IntermittentResult:
    """Outcome of one trace under one power supply and scheme."""

    scheme: str
    n_events: int
    n_intervals: int
    completed: bool
    stalled: bool
    attempted_events: int
    committed_events: int
    on_cycles_total: float
    uninterrupted_cycles: float

    @property
    def forward_progress(self) -> float:
        """Durably committed fraction of all executed events."""
        if self.attempted_events == 0:
            return 0.0
        return self.committed_events / self.attempted_events

    @property
    def reexec_overhead(self) -> float:
        """Events executed but thrown away, per committed event."""
        if self.committed_events == 0:
            return float(self.attempted_events)
        return (self.attempted_events - self.committed_events) / self.committed_events

    def wall_cycles(self, duty: float) -> float:
        return self.on_cycles_total / duty if duty > 0 else float("inf")

    def slowdown(self, duty: float) -> float:
        if not self.completed or self.uninterrupted_cycles <= 0:
            return float("inf")
        return self.wall_cycles(duty) / self.uninterrupted_cycles


def run_intermittent(
    trace,
    machine: MachineConfig,
    scheme: Scheme,
    power: PowerTrace,
    prime: Optional[Sequence[Tuple[int, int]]] = None,
    uninterrupted_cycles: float = 0.0,
    max_intervals: int = 100_000,
) -> IntermittentResult:
    """Execute *trace* across power failures until durably complete.

    Every interval starts a fresh :class:`TimingSimulator` (volatile
    state is lost; the first interval inherits the primed hierarchy,
    later ones restart cold -- the cost of dying) and runs from the
    durable cursor with the interval's cycle budget.  Durable
    progress advances to the last region boundary whose persists had
    completed within the budget; non-persisting schemes never advance
    it.  A run that makes no progress for :data:`STALL_LIMIT`
    consecutive intervals is reported stalled.
    """
    trace = as_packed(trace)
    n = len(trace)
    durable = 0
    attempted = 0
    committed = 0
    n_intervals = 0
    on_total = 0.0
    completed = False
    stalled = False
    no_progress = 0
    supply = power.intervals()
    while durable < n and n_intervals < max_intervals:
        length = next(supply)
        n_intervals += 1
        recovery = 0.0 if n_intervals == 1 else power.recovery_cycles
        budget = length - recovery
        if budget <= 0:
            on_total += length
            no_progress += 1
            if no_progress >= STALL_LIMIT:
                stalled = True
                break
            continue
        sim = TimingSimulator(machine, scheme)
        if prime is not None and n_intervals == 1:
            sim.hier.prime(list(prime))
        blog: List[Tuple[int, float]] = []
        end = sim.run_until(trace, budget, start=durable, boundary_log=blog)
        attempted += end - durable
        if end >= n:
            # The tail executed; completion is durable only once the
            # outstanding persists drain within the same interval.
            drain = (
                max(sim.region_last_persist, sim.prev_region_complete)
                if scheme.persist_stores
                else sim.cycle
            )
            if drain <= budget:
                committed += n - durable
                durable = n
                completed = True
                on_total += recovery + drain
                break
        new_durable = durable
        if scheme.persist_stores:
            for idx, complete in blog:
                if complete <= budget and idx > new_durable:
                    new_durable = idx
        on_total += length
        if new_durable == durable:
            no_progress += 1
            if no_progress >= STALL_LIMIT:
                stalled = True
                break
        else:
            no_progress = 0
            committed += new_durable - durable
            durable = new_durable
    return IntermittentResult(
        scheme=scheme.name,
        n_events=n,
        n_intervals=n_intervals,
        completed=completed,
        stalled=stalled,
        attempted_events=attempted,
        committed_events=committed,
        on_cycles_total=on_total,
        uninterrupted_cycles=uninterrupted_cycles,
    )


# ----------------------------------------------------------------------
# The duty-cycle sweep campaign
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCampaignSpec:
    """One intermittent-power sweep: apps x schemes x supply points."""

    apps: Tuple[str, ...] = ("astar", "bzip2")
    schemes: Tuple[str, ...] = ("baseline", "cwsp", "capri", "replaycache")
    #: On-interval means, as fractions of each run's uninterrupted cycles.
    on_fracs: Tuple[float, ...] = (0.05, 0.2)
    duties: Tuple[float, ...] = (0.5, 0.9)
    n_insts: int = 4000
    seed: int = 3
    recovery_cycles: float = 200.0
    jitter: float = 0.2


def power_smoke_spec(seed: int = 3) -> PowerCampaignSpec:
    """The fast seeded CI sweep."""
    return PowerCampaignSpec(
        apps=("astar",),
        schemes=("baseline", "cwsp", "replaycache"),
        on_fracs=(0.1, 0.3),
        duties=(0.5,),
        n_insts=2000,
        seed=seed,
    )


def _scheme_factories() -> Dict[str, object]:
    from repro.schemes.catalog import baseline, capri, cwsp, ido, psp_ideal, replaycache

    return {
        f().name if hasattr(f(), "name") else name: f
        for name, f in (
            ("baseline", baseline),
            ("cwsp", cwsp),
            ("capri", capri),
            ("replaycache", replaycache),
            ("ido", ido),
            ("psp_ideal", psp_ideal),
        )
    }


def run_power_campaign(spec: PowerCampaignSpec, log=None) -> Dict[str, object]:
    """Sweep the spec; returns the JSON artifact (with violations)."""
    from repro.workloads.profiles import PROFILES
    from repro.workloads.synthetic import generate_trace, prime_ranges

    factories = _scheme_factories()
    unknown = [s for s in spec.schemes if s not in factories]
    if unknown:
        raise ValueError(f"unknown schemes {unknown}; choose from {sorted(factories)}")
    machine = skylake_machine(scaled=True)
    t0 = time.time()
    rows: List[Dict[str, object]] = []
    violations: List[str] = []
    for app in spec.apps:
        profile = PROFILES[app]
        prime = prime_ranges(profile)
        trace = generate_trace(
            profile, spec.n_insts, seed=spec.seed, instrument="pruned", packed=True
        )
        base_cycles: Dict[str, float] = {}
        for name in spec.schemes:
            scheme = factories[name]()
            base_cycles[name] = simulate(trace, machine, scheme, prime=prime).cycles
        for on_frac in spec.on_fracs:
            for duty in spec.duties:
                per_point: Dict[str, IntermittentResult] = {}
                for name in spec.schemes:
                    scheme = factories[name]()
                    cycles = base_cycles[name]
                    power = PowerTrace(
                        on_cycles=cycles * on_frac,
                        duty=duty,
                        jitter=spec.jitter,
                        recovery_cycles=spec.recovery_cycles,
                        seed=spec.seed,
                    )
                    res = run_intermittent(
                        trace,
                        machine,
                        scheme,
                        power,
                        prime=prime,
                        uninterrupted_cycles=cycles,
                    )
                    per_point[name] = res
                    slow = res.slowdown(duty)
                    rows.append(
                        {
                            "app": app,
                            "scheme": name,
                            "on_frac": on_frac,
                            "duty": duty,
                            "intervals": res.n_intervals,
                            "completed": res.completed,
                            "stalled": res.stalled,
                            "attempted": res.attempted_events,
                            "committed": res.committed_events,
                            "forward_progress": res.forward_progress,
                            "reexec_overhead": res.reexec_overhead,
                            "slowdown": None if slow == float("inf") else slow,
                        }
                    )
                    if not 0.0 <= res.forward_progress <= 1.0:
                        violations.append(
                            f"{app}/{name}@{on_frac}/{duty}: forward_progress "
                            f"{res.forward_progress} out of [0, 1]"
                        )
                    if log is not None:
                        status = (
                            "done" if res.completed
                            else "STALLED" if res.stalled
                            else "incomplete"
                        )
                        log(
                            f"  {app:>10s} {name:<12s} on={on_frac:<5g} "
                            f"duty={duty:<4g} {status}: progress="
                            f"{res.forward_progress:.3f} intervals={res.n_intervals}"
                        )
                # Model invariants across schemes at one supply point:
                # a persisting scheme's durable progress can never trail
                # the baseline's (which only commits by finishing).
                base = per_point.get("baseline")
                if base is not None:
                    for name, res in per_point.items():
                        if name == "baseline":
                            continue
                        sch = factories[name]()
                        if (
                            sch.persist_stores
                            and res.forward_progress < base.forward_progress - 1e-12
                        ):
                            violations.append(
                                f"{app}/{name}@{on_frac}/{duty}: persisting scheme "
                                f"progress {res.forward_progress:.4f} trails "
                                f"baseline {base.forward_progress:.4f}"
                            )
    completed_rows = sum(1 for r in rows if r["completed"])
    return {
        "meta": {
            "spec": asdict(spec),
            "elapsed_s": round(time.time() - t0, 2),
        },
        "rows": rows,
        "totals": {
            "points": len(rows),
            "completed": completed_rows,
            "stalled": sum(1 for r in rows if r["stalled"]),
        },
        "violations": violations,
    }


def intermittent_result(artifact: Dict[str, object]):
    """Render a power-campaign artifact as a harness FigureResult."""
    from repro.harness.report import FigureResult

    totals = artifact["totals"]
    violations = artifact["violations"]
    status = (
        "all invariants held" if not violations else f"{len(violations)} VIOLATIONS"
    )
    result = FigureResult(
        "Intermittent",
        f"Intermittent-power duty-cycle sweep ({status}): forward progress "
        "and re-execution overhead per scheme (beyond the paper)",
        [
            "app", "scheme", "on_frac", "duty", "intervals",
            "progress", "reexec", "slowdown",
        ],
        paper_says=(
            "not in the paper; WSP's pitch is exactly this scenario -- "
            "persisting schemes retain region-granular progress across "
            "failures while the baseline restarts from scratch"
        ),
    )
    progress = {"baseline": [], "persist": []}
    persist_completed = 0
    for row in artifact["rows"]:
        result.add(
            row["app"],
            row["scheme"],
            row["on_frac"],
            row["duty"],
            row["intervals"],
            round(row["forward_progress"], 4),
            round(row["reexec_overhead"], 4),
            "-" if row["slowdown"] is None else round(row["slowdown"], 2),
        )
        bucket = "baseline" if row["scheme"] == "baseline" else "persist"
        progress[bucket].append(row["forward_progress"])
        if bucket == "persist" and row["completed"]:
            persist_completed += 1
    result.summary = {
        "points": float(totals["points"]),
        "violations": float(len(violations)),
        "baseline_max_progress": max(progress["baseline"], default=0.0),
        "persist_min_progress": min(progress["persist"], default=0.0),
        "persist_mean_progress": (
            sum(progress["persist"]) / len(progress["persist"])
            if progress["persist"]
            else 0.0
        ),
        "persist_completed": float(persist_completed),
    }
    return result
