"""Multi-core timing simulation.

The paper evaluates an 8-core Skylake machine; SPLASH3, WHISPER, and
STAMP are multithreaded.  This module runs one
:class:`~repro.arch.machine.TimingSimulator` per core -- each with its
private L1D/WB/PB/RBT, as in Figure 3(b) -- over shared memory-system
state:

- a shared last SRAM level and DRAM cache (tag state shared; no
  coherence-protocol model, matching the paper's DRF argument that
  races are absent and sync points order cross-thread visibility);
- shared per-MC WPQs and NVM write bandwidth;
- a shared persist path *per core* (the paper's persist path connects
  each core to the MCs, so path bandwidth is per-core, but WPQ and NVM
  bandwidth are contended).

Cores are advanced in min-clock order: the core with the smallest
local clock consumes its next event, so shared-queue contention is
observed in approximately global time order.  One scheduler
(:meth:`MulticoreSimulator._schedule`) implements that order for
whole runs and cuts alike, over one packed-trace coroutine per core
(:meth:`TimingSimulator._packed_gen`), consulted only at events that
touch shared state.  Each core runs ahead through its core-private
events (ALU, L1 hits, fences, coalesced persists) without consulting
the scheduler -- private events commute -- and blocks before a shared
event until it holds the minimum ``(clock, core)`` pair, so every
shared interaction happens in exactly the order of a per-event
min-clock stepper.  That stepper is kept in ``tests/sim_oracle.py``
as the oracle the tests diff the scheduler against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.caches import CacheHierarchy
from repro.arch.config import MachineConfig
from repro.arch.machine import INF, Event, SimStats, TimingSimulator
from repro.arch.metrics import MetricSet
from repro.arch.scheme import Scheme
from repro.arch.trace import PackedTrace, as_packed


@dataclass
class MulticoreStats:
    """Aggregate of a multi-core run."""

    per_core: List[SimStats] = field(default_factory=list)

    def merged(self) -> SimStats:
        """One mergeable record set for the whole run.

        Counters sum across cores, the cycle gauge keeps the makespan,
        and occupancy/ratio records stay time- and access-weighted --
        this is what the experiment engine ships across process
        boundaries and stores in its result cache.
        """
        metrics = MetricSet()
        for stats in self.per_core:
            metrics.merge(stats.metrics)
        # Not per_core[0].scheme: an idle core 0 (fewer traces than
        # cores, or an empty first trace) must not decide the label.
        scheme = next((s.scheme for s in self.per_core if s.scheme), "")
        return SimStats(scheme=scheme, metrics=metrics)

    @property
    def cycles(self) -> float:
        """Makespan: the slowest core's finish time."""
        return max((s.cycles for s in self.per_core), default=0.0)

    @property
    def insts(self) -> int:
        return sum(s.insts for s in self.per_core)

    @property
    def total_nvm_writes(self) -> int:
        return sum(s.nvm_writes for s in self.per_core)

    @property
    def wpq_full_stalls(self) -> int:
        # The WPQs are shared queue objects and only the owning core
        # contributes their records (finalize(shared_owner=...)), so
        # summing the merged set counts the global number exactly once
        # -- and does not assume the owner sits at index 0.
        return sum(int(s.metrics.value("wpq.full_stalls")) for s in self.per_core)


class MulticoreSimulator:
    """N per-core simulators sharing LLC tags, WPQs, and NVM bandwidth."""

    def __init__(
        self,
        machine: MachineConfig,
        scheme: Scheme,
        n_cores: int,
        share_llc: bool = True,
    ) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.machine = machine
        self.n_cores = n_cores
        self.cores = [TimingSimulator(machine, scheme) for _ in range(n_cores)]
        # Shared structures: all cores reference the same WPQ queues,
        # NVM bandwidth trackers, and WPQ-word maps.
        shared_wpq = self.cores[0].wpq
        shared_nvm_free = self.cores[0].nvm_free
        shared_words = self.cores[0].wpq_word_done
        for core in self.cores[1:]:
            core.wpq = shared_wpq
            core.nvm_free = shared_nvm_free
            core.wpq_word_done = shared_words
        if share_llc:
            self._share_llc_tags()

    def _share_llc_tags(self) -> None:
        """Point every core's shared levels at core 0's tag state."""
        ref: CacheHierarchy = self.cores[0].hier
        for core in self.cores[1:]:
            hier = core.hier
            # L1D stays private; everything below it is shared.
            for i in range(1, len(hier.levels)):
                hier.levels[i] = ref.levels[i]
            hier.dram = ref.dram

    def prime(self, ranges: Iterable[Tuple[int, int]]) -> None:
        """Warm the shared levels and the DRAM cache only.

        Every private L1D starts cold: warming core 0's L1 (while
        cores 1..N-1 stayed cold) would bias per-core stats
        asymmetrically.  The shared tag state makes one core's priming
        visible to all of them.
        """
        self.cores[0].hier.prime(list(ranges), from_level=1)

    def run(self, traces: Sequence[List[Event]]) -> MulticoreStats:
        """Run one event stream per core; returns aggregate stats.

        Fewer traces than cores leaves the extra cores idle.
        """
        self.run_until(traces, INF)
        return self._finalize()

    def _finalize(self) -> MulticoreStats:
        stats = MulticoreStats()
        for idx, core in enumerate(self.cores):
            # The WPQs are shared queue objects: only core 0 owns their
            # records, so merged aggregates count them exactly once.
            stats.per_core.append(core.finalize(shared_owner=idx == 0))
        return stats

    def run_until(
        self,
        traces: Sequence[List[Event]],
        cycle_limit: float,
        cursors: Optional[List[int]] = None,
        max_events: Optional[int] = None,
    ) -> List[int]:
        """Advance all cores in min-clock order until every unexhausted
        core's clock reaches *cycle_limit*; returns the per-core cursors
        (index of each core's first unexecuted event).

        Like :meth:`TimingSimulator.run_until`, the cut falls between
        committed events: each core stops at its first event whose
        pre-commit clock is at or past the limit, so it executes exactly
        the events a per-event min-clock stepper would.  ``max_events``
        bounds an event-budget cut instead (the checkpoint layer's
        relays): the budget is split into per-core shares, the remainder
        going to the cores with the earliest clocks, so the first core
        scheduled always runs.  At most ``max_events`` events run, and
        the run ends at a consistent cut as soon as one core has used
        its share (DESIGN.md §7c).
        """
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        traces = [as_packed(t) for t in traces]
        cursors = [0] * len(traces) if cursors is None else list(cursors)
        stops = None
        if max_events is not None:
            if max_events <= 0:
                return cursors
            active = sorted(
                (self.cores[idx].cycle, idx)
                for idx, trace in enumerate(traces)
                if cursors[idx] < len(trace)
            )
            share, extra = divmod(max_events, len(active) or 1)
            stops = list(cursors)
            for rank, (_, idx) in enumerate(active):
                stops[idx] += share + (rank < extra)
        return self._schedule(traces, cursors, cycle_limit, stops)

    # -- checkpoint protocol -------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Serialize all cores; shared structures are captured once, by
        core 0 (``include_shared`` split -- see
        :meth:`TimingSimulator.snapshot`)."""
        return {
            "n_cores": self.n_cores,
            "cores": [
                core.snapshot(include_shared=idx == 0)
                for idx, core in enumerate(self.cores)
            ],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot` into this (freshly constructed,
        same-config) multicore simulator.  Core 0 restores the shared
        WPQs/NVM trackers/LLC levels in place, which every other core
        observes through the references ``__init__`` wired up."""
        if state["n_cores"] != self.n_cores:
            raise ValueError(
                f"snapshot has {state['n_cores']} cores, simulator has "
                f"{self.n_cores}"
            )
        for core, core_state in zip(self.cores, state["cores"]):
            core.restore_state(core_state)

    def _schedule(
        self,
        traces: Sequence[PackedTrace],
        cursors: List[int],
        cycle_limit: float,
        stops: Optional[List[int]],
    ) -> List[int]:
        """Fused scheduling loop over per-core packed coroutines.

        Each core's :meth:`TimingSimulator._packed_gen` executes runs
        of core-private events without scheduler involvement and yields
        its pre-event clock when blocked at a shared event while some
        other core's pending ``(clock, core)`` pair is smaller.  The
        heap holds exactly those pending pairs, so shared-state
        interactions happen in min-clock order, and the per-event
        heap-pop/dispatch/heap-push of a min-clock stepper is paid only
        at actual cross-core scheduling points.  A popped generator's
        pending key is the heap minimum, so each ``send`` executes at
        least one event: the loop always makes progress.

        A core that stops before its trace ends (the cycle cut or its
        stop index) leaves its pending key in the heap as a wall.  When
        the wall is popped, every other pending key is larger, so every
        shared event executed so far precedes every one not executed:
        the cut is consistent.  The parked generators are then closed,
        which writes their state back.  Returns the per-core cursors.
        """
        gens: Dict[int, object] = {}
        heap: List[Tuple[float, int]] = []
        for idx, trace in enumerate(traces):
            if cursors[idx] < len(trace):
                core = self.cores[idx]
                stop = None if stops is None else stops[idx]
                gen = core._packed_gen(trace, idx, cursors[idx], stop, cycle_limit)
                next(gen)  # run the locals setup, park before the first event
                gens[idx] = gen
                heap.append((core.cycle, idx))
        heapq.heapify(heap)
        last = (INF, -1)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            idx = heappop(heap)[1]
            gen = gens.get(idx)
            if gen is None:
                break  # a wall: the run stops here
            try:
                clock = gen.send(heap[0] if heap else last)
            except StopIteration:
                del gens[idx]
                core = self.cores[idx]
                if core.cursor < len(traces[idx]):
                    heappush(heap, (core.cycle, idx))
                continue
            heappush(heap, (clock, idx))
        for gen in gens.values():
            gen.close()
        for idx in range(len(traces)):
            if cursors[idx] < len(traces[idx]):
                cursors[idx] = self.cores[idx].cursor
        return cursors


def simulate_multicore(
    traces: Sequence[List[Event]],
    machine: MachineConfig,
    scheme: Scheme,
    n_cores: Optional[int] = None,
    prime: Optional[Iterable[Tuple[int, int]]] = None,
) -> MulticoreStats:
    """Convenience wrapper mirroring :func:`repro.arch.machine.simulate`."""
    sim = MulticoreSimulator(machine, scheme, n_cores or len(traces))
    if prime is not None:
        sim.prime(prime)
    return sim.run(traces)
