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
(:meth:`MulticoreSimulator._schedule`) implements that order over one
packed-trace coroutine per core (:meth:`TimingSimulator._packed_gen`),
consulted only at events that touch shared state.  Each core runs ahead through its core-private
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
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        self._schedule([as_packed(t) for t in traces])
        return self._finalize()

    def _finalize(self) -> MulticoreStats:
        stats = MulticoreStats()
        for idx, core in enumerate(self.cores):
            # The WPQs are shared queue objects: only core 0 owns their
            # records, so merged aggregates count them exactly once.
            stats.per_core.append(core.finalize(shared_owner=idx == 0))
        return stats

    def _schedule(self, traces: Sequence[PackedTrace]) -> None:
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
        least one event: the loop always makes progress, and a core
        leaves the heap when its trace runs out.
        """
        gens: Dict[int, object] = {}
        heap: List[Tuple[float, int]] = []
        for idx, trace in enumerate(traces):
            if len(trace):
                core = self.cores[idx]
                gen = core._packed_gen(trace, idx)
                next(gen)  # run the locals setup, park before the first event
                gens[idx] = gen
                heap.append((core.cycle, idx))
        heapq.heapify(heap)
        last = (INF, -1)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            idx = heappop(heap)[1]
            try:
                clock = gens[idx].send(heap[0] if heap else last)
            except StopIteration:
                continue
            heappush(heap, (clock, idx))


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
