"""Multicore fault campaigns: cross-core crash injection on
ThreadedExecution runs of the concurrent kernel suite.

Single-core kernels never exercise the paper's Section VIII machinery:
per-thread RBT FIFOs, cross-core undo-log revert in reverse global
order, and independent per-thread recovery-slice replay.  This module
holds what is multicore-specific about attacking that surface --
profiling a threaded run, the ``mt-*`` strategies, the threaded epoch
loop (:func:`run_mt_schedule`) and the canonical reference
(:func:`run_mt_trial`).  The campaign itself (fan-out, tallies,
shrinking, the artifact) is the one driver in
:mod:`repro.faults.campaign`, which runs an :class:`MTCampaignSpec`'s
``(kernel, (scheme, strategy), schedule)`` tasks.  The attack:

- **cut placement** targets the cross-thread interaction points found
  by a profiling run -- atomics (synchronization regions), per-thread
  region boundaries (the interleaving switch points), and nested cuts
  landing *during another thread's recovery* (small offsets into a
  resumed epoch, while some threads are still re-executing their
  recovery regions);
- **interleaving** is a first-class schedule dimension
  (:attr:`FaultSchedule.interleave`): strategies sweep rotations and
  skewed patterns, and the shrinker minimizes over the pattern as well
  as the cut sequence;
- the **checker** replays every trial against a failure-free
  reference, comparing each thread's (sorted) outputs and the
  kernel's canonical digest of the shared structure -- the workloads
  are confluent, so a recovered run on a different admissible DRF
  schedule must still converge to the same canonical outcome;
- each campaign also records the **delay-free wait account**: how many
  drain opportunities cWSP's synchronous sync-point drains burned per
  kernel and scheme, the mandated wait a Ben-David-style delay-free
  algorithm would not pay (see
  :attr:`~repro.recovery.model.FunctionalPersistence.sync_wait_slots`).

Scheme configs (``MT_SCHEMES``) stress distinct hardware shapes:
default queues, squeezed PB/RBT (forced drains and speculation-depth
pressure), and skewed multi-MC drain rates (stragglers holding regions
unpersisted across other cores' progress).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler import compile_module
from repro.ir.function import Module
from repro.ir.interpreter import Memory
from repro.recovery.failure import sampled_points
from repro.recovery.multithread import ThreadSpec, ThreadedExecution
from repro.recovery.protocol import DegradedRecovery
from repro.workloads.programs import CONC_KERNELS, build_conc_kernel
from repro.faults.injectors import make_config
from repro.faults.schedule import FaultSchedule, TrialRecord
from repro.faults.strategies import single_cut_sweep

MT_STRATEGIES = ("mt-single", "mt-atomic", "mt-boundary", "mt-interleave", "mt-nested")

#: Named persistence-config shapes a multicore campaign sweeps.  Values
#: are JSON-friendly PersistenceConfig overrides, carried verbatim in
#: each schedule so any divergence replays from the schedule alone.
MT_SCHEMES: Dict[str, Dict[str, object]] = {
    "default": {},
    "smallq": {"pb_size": 8, "rbt_size": 4},
    "skewed": {"drain_per_step": 0.2, "mc_skew": [0, 5]},
}


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
@dataclass
class MTKernelProfile:
    """What one clean instrumented multithreaded run reveals."""

    name: str
    n_threads: int
    total_events: int
    #: Global committed-event indices of atomic RMWs (any thread).
    atomic_points: List[int] = field(default_factory=list)
    #: Per-thread committed-event indices of region boundaries.
    boundary_points: Dict[int, List[int]] = field(default_factory=dict)
    #: Delay-free wait account of the clean run (see module docstring).
    sync_points: int = 0
    sync_wait_slots: int = 0


def profile_conc_kernel(
    module: Module,
    name: str,
    threads: List[ThreadSpec],
    config_overrides: Optional[dict] = None,
    interleave: Optional[List[int]] = None,
) -> MTKernelProfile:
    """One clean run recording where the cross-thread action is."""
    profile = MTKernelProfile(name=name, n_threads=len(threads), total_events=0)

    def observe(ev, count: int, tid: int) -> None:
        if ev.kind == "atomic":
            profile.atomic_points.append(count)
        elif ev.kind == "boundary":
            profile.boundary_points.setdefault(tid, []).append(count)

    execu = ThreadedExecution(
        module, threads, make_config(config_overrides or {}), interleave=interleave
    )
    run = execu.run(observe=observe)
    assert run.completed, "profiling run must complete"
    profile.total_events = run.events
    profile.sync_points = run.model.sync_points
    profile.sync_wait_slots = run.model.sync_wait_slots
    return profile


def _interleave_patterns(n_threads: int) -> List[List[int]]:
    """Non-default scheduling orders worth sweeping: rotations, the
    reverse order, and skewed patterns giving one thread extra slices."""
    base = list(range(n_threads))
    patterns = [base[r:] + base[:r] for r in range(1, n_threads)]
    rev = base[::-1]
    if rev not in patterns:
        patterns.append(rev)
    patterns.append([0] + base)        # thread 0 runs twice per round
    patterns.append(base + [n_threads - 1])
    return patterns


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def mt_atomic_cuts(profile: MTKernelProfile, stride: int = 1) -> List[FaultSchedule]:
    """Cuts hugging every (stride-sampled) atomic RMW: at the atomic's
    commit, just before it, and just after -- the windows where a shared
    word's undo-log entries span cores."""
    points: set = set()
    for i, p in enumerate(profile.atomic_points):
        if i % max(1, stride):
            continue
        points.update(q for q in (p - 1, p, p + 1) if 1 <= q <= profile.total_events)
    return [FaultSchedule(cuts=[p], strategy="mt-atomic") for p in sorted(points)]


def mt_boundary_cuts(profile: MTKernelProfile, stride: int) -> List[FaultSchedule]:
    """Cuts at per-thread region boundaries (the scheduler's switch
    points): each thread's oldest-region bookkeeping is mid-update."""
    points: set = set()
    for tid in sorted(profile.boundary_points):
        marks = profile.boundary_points[tid]
        for i in range(0, len(marks), max(1, stride)):
            points.add(marks[i])
        if marks:
            points.add(marks[-1])
    return [FaultSchedule(cuts=[p], strategy="mt-boundary") for p in sorted(points)]


def mt_interleave_sweep(
    profile: MTKernelProfile, stride: int
) -> List[FaultSchedule]:
    """Re-aim a coarse cut sweep under every non-default interleaving
    pattern: the same cut index lands in a different cross-thread state
    under each order."""
    schedules: List[FaultSchedule] = []
    for pattern in _interleave_patterns(profile.n_threads):
        for p in sampled_points(profile.total_events, stride):
            schedules.append(
                FaultSchedule(cuts=[p], interleave=list(pattern), strategy="mt-interleave")
            )
    return schedules


def mt_nested_sweep(
    module: Module,
    threads: List[ThreadSpec],
    profile: MTKernelProfile,
    stride: int,
    stride2: int,
) -> List[FaultSchedule]:
    """2-crash sequences: for each sampled primary cut, recover once
    cleanly to measure the resumed epoch, then aim the nested cut at
    offset 0 (during recovery itself), offsets 1-3 (while other threads
    are still re-executing their recovery regions), and a stride2 sweep
    of the rest of the epoch."""
    execu = ThreadedExecution(module, threads)
    schedules: List[FaultSchedule] = []
    for p in sampled_points(profile.total_events, stride):
        run = execu.run(fail_after_event=p)
        if run.completed:
            continue
        epoch = execu.resume_epoch(run.model)
        if epoch.kind != "completed":
            # Clean recovery failed outright; record the bare schedule
            # so the campaign reports the divergence.
            schedules.append(FaultSchedule(cuts=[p], strategy="mt-nested"))
            continue
        offsets = {0, 1, 2, 3} | set(sampled_points(epoch.events, stride2, first=0))
        for q in sorted(offsets):
            schedules.append(FaultSchedule(cuts=[p, q], strategy="mt-nested"))
    return schedules


# ----------------------------------------------------------------------
# Schedule execution and trial classification
# ----------------------------------------------------------------------
@dataclass
class MTScheduleOutcome:
    """Full result of driving one multicore FaultSchedule."""

    status: str  # "recovered" | "completed" | "degraded"
    outputs: List[List[int]] = field(default_factory=list)
    memory: Optional[Memory] = None
    degraded: Optional[DegradedRecovery] = None
    epochs: int = 0


def run_mt_schedule(
    module: Module,
    threads: List[ThreadSpec],
    schedule: FaultSchedule,
    max_steps: int = 5_000_000,
) -> MTScheduleOutcome:
    """Execute one adversarial plan against a multithreaded run.

    Multicore schedules use cuts + interleave only: torn persists and
    storage corruption are single-core fault classes here (the MC apply
    path and checkpoint layout are shared machinery already covered by
    the single-threaded campaign).
    """
    if schedule.tear is not None or schedule.flip is not None:
        raise ValueError("multicore schedules support cuts/interleave only")
    config = make_config(schedule.config)
    execu = ThreadedExecution(
        module, threads, config, max_steps, interleave=schedule.interleave or None
    )
    cut0 = schedule.cuts[0] if schedule.cuts else None
    run = execu.run(fail_after_event=cut0)
    if run.completed:
        return MTScheduleOutcome(
            status="completed", outputs=run.outputs, memory=run.memory
        )

    n = len(threads)
    model = run.model
    prefix: List[List[int]] = [[] for _ in range(n)]
    epochs = 0
    # Each nested cut ends another resumed epoch; the final recovery
    # (fail_after_event=None) always runs to completion or degrades.
    for cut in list(schedule.cuts[1:]) + [None]:
        for tid in range(n):
            prefix[tid].extend(model.thread_released[tid])
        epoch = execu.resume_epoch(model, fail_after_event=cut)
        epochs += 1
        if epoch.kind == "degraded":
            return MTScheduleOutcome(
                status="degraded", outputs=prefix, degraded=epoch.degraded, epochs=epochs
            )
        model = epoch.model
        if epoch.kind == "completed":
            return MTScheduleOutcome(
                status="recovered",
                outputs=[prefix[tid] + epoch.outputs[tid] for tid in range(n)],
                memory=epoch.memory,
                epochs=epochs,
            )
    raise AssertionError("final uncut epoch neither completed nor degraded")


# Per-process cache: compiled module + failure-free reference.
_MT_CACHE: Dict[str, tuple] = {}


def _mt_kernel_context(name: str):
    """Compiled concurrent kernel + failure-free reference, cached.

    The reference runs under the default config and round-robin order;
    config overrides change persistence *mechanics*, not program
    semantics, and the kernels are confluent over interleavings, so one
    reference serves every scheme and pattern.
    """
    ctx = _MT_CACHE.get(name)
    if ctx is None:
        module, threads, digest = build_conc_kernel(name)
        compile_module(module)
        ref = ThreadedExecution(module, threads).run()
        assert ref.completed
        ref_outputs = [sorted(o) for o in ref.outputs]
        ref_digest = digest(ref.memory)
        ctx = (module, threads, digest, ref_outputs, ref_digest)
        _MT_CACHE[name] = ctx
    return ctx


def run_mt_trial(kernel: str, schedule: FaultSchedule) -> TrialRecord:
    """Drive one multicore schedule; classify against the reference.

    A recovered run must match the reference *canonically*: each
    thread's sorted outputs and the kernel's digest of the shared
    structure (the recovered schedule is a different admissible DRF
    interleaving, so only canonical comparison is meaningful).
    """
    module, threads, digest, ref_outputs, ref_digest = _mt_kernel_context(kernel)
    try:
        outcome = run_mt_schedule(module, threads, schedule)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return TrialRecord(kernel, schedule, "error", f"{type(exc).__name__}: {exc}")
    if outcome.status == "degraded":
        return TrialRecord(
            kernel, schedule, "degraded", outcome.degraded.reason, epochs=outcome.epochs
        )
    got_digest = digest(outcome.memory) if outcome.memory is not None else None
    detail = ""
    for tid, (got, want) in enumerate(zip(outcome.outputs, ref_outputs)):
        if sorted(got) != want:
            detail = f"thread {tid} outputs {sorted(got)[:8]} != {want[:8]}"
            break
    if not detail and got_digest != ref_digest:
        detail = f"digest {json.dumps(got_digest, sort_keys=True)[:80]} != reference"
    if outcome.status == "completed":
        status = "completed" if not detail else "divergent"
        return TrialRecord(kernel, schedule, status, detail)
    if not detail:
        return TrialRecord(kernel, schedule, "ok", epochs=outcome.epochs)
    return TrialRecord(kernel, schedule, "divergent", detail, epochs=outcome.epochs)


# ----------------------------------------------------------------------
# Campaign spec (run by repro.faults.campaign.run_campaign)
# ----------------------------------------------------------------------
@dataclass
class MTCampaignSpec:
    """Everything that determines a multicore campaign's trial list."""

    kernels: List[str] = field(default_factory=lambda: list(CONC_KERNELS))
    schemes: List[str] = field(default_factory=lambda: list(MT_SCHEMES))
    strategies: List[str] = field(default_factory=lambda: list(MT_STRATEGIES))
    seed: int = 1
    stride: int = 9        # mt-single / mt-nested primary stride
    stride2: int = 7       # mt-nested offset stride
    atomic_stride: int = 1
    boundary_stride: int = 3
    interleave_stride: int = 17
    max_shrink_evals: int = 150
    #: (kernel, scheme) -> clean profiling run, shared by tasks() and sections()
    _profiles: Dict[Tuple[str, str], MTKernelProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": "multicore",
            "kernels": list(self.kernels),
            "schemes": list(self.schemes),
            "strategies": list(self.strategies),
            "seed": self.seed,
            "stride": self.stride,
            "stride2": self.stride2,
            "atomic_stride": self.atomic_stride,
            "boundary_stride": self.boundary_stride,
            "interleave_stride": self.interleave_stride,
        }

    def _profile(self, kernel: str, scheme: str) -> MTKernelProfile:
        if (kernel, scheme) not in self._profiles:
            module, threads, *_ = _mt_kernel_context(kernel)
            self._profiles[kernel, scheme] = profile_conc_kernel(
                module, kernel, threads, dict(MT_SCHEMES[scheme])
            )
        return self._profiles[kernel, scheme]

    def tasks(self) -> List[Tuple[str, Tuple[str, str], FaultSchedule]]:
        """Expand the spec into concrete (kernel, (scheme, strategy),
        schedule) tasks; every schedule pins its scheme's config."""
        tasks: List[Tuple[str, Tuple[str, str], FaultSchedule]] = []
        for kernel in self.kernels:
            module, threads, _digest, _ro, _rd = _mt_kernel_context(kernel)
            for scheme in self.schemes:
                overrides = dict(MT_SCHEMES[scheme])
                profile = self._profile(kernel, scheme)
                for name in self.strategies:
                    if name == "mt-single":
                        schedules = single_cut_sweep(profile, self.stride, name)
                    elif name == "mt-atomic":
                        schedules = mt_atomic_cuts(profile, self.atomic_stride)
                    elif name == "mt-boundary":
                        schedules = mt_boundary_cuts(profile, self.boundary_stride)
                    elif name == "mt-interleave":
                        schedules = mt_interleave_sweep(profile, self.interleave_stride)
                    elif name == "mt-nested":
                        schedules = mt_nested_sweep(
                            module, threads, profile, self.stride, self.stride2
                        )
                    else:
                        raise ValueError(
                            f"unknown strategy {name!r}; choose from {MT_STRATEGIES}"
                        )
                    for s in schedules:
                        s = s.but(config=dict(overrides), seed=self.seed)
                        tasks.append((kernel, (scheme, s.strategy), s))
        return tasks

    def sections(self) -> Dict[str, object]:
        """The delay-free wait account, per kernel x scheme, from clean runs."""
        delay_free: Dict[str, Dict[str, Dict[str, float]]] = {}
        for kernel in self.kernels:
            for scheme in self.schemes:
                profile = self._profile(kernel, scheme)
                delay_free.setdefault(kernel, {})[scheme] = {
                    "sync_points": profile.sync_points,
                    "wait_slots": profile.sync_wait_slots,
                    "wait_per_sync": round(
                        profile.sync_wait_slots / profile.sync_points, 3
                    ) if profile.sync_points else 0.0,
                }
        return {"delay_free": delay_free}


def mt_smoke_spec(seed: int = 1) -> MTCampaignSpec:
    """A small seeded multicore campaign (CI gate): 3 kernels x 3
    schemes, the high-value strategies, coarse strides."""
    return MTCampaignSpec(
        kernels=["mpmc_queue", "treiber_stack", "ticket_counter"],
        schemes=list(MT_SCHEMES),
        strategies=["mt-atomic", "mt-nested", "mt-interleave"],
        seed=seed,
        stride=31,
        stride2=19,
        atomic_stride=3,
        boundary_stride=6,
        interleave_stride=47,
    )
