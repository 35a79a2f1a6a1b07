"""Per-event reference loops for the timing simulators.

``OracleSimulator`` is :class:`TimingSimulator` with the original
one-dispatch-per-event-tuple loop (``_step``, ``_run_events``,
``_load`` and the reference ``run_until``), kept verbatim as the
specification the fused ``_packed_gen`` loop must reproduce byte for
byte: the same ``SimStats``, the same cut index, the same boundary log
and the same ``snapshot()``.  ``OracleMulticore`` is
:class:`MulticoreSimulator` with the per-event min-clock heap stepper,
the specification of the fused scheduler's order.  Both inherit
construction, the rare-path methods (``_store``, ``_persist``,
``_evictions``, ``_boundary``, ``_sync``) and the checkpoint protocol
unchanged, so oracle and simulator differ only in how events are
dispatched.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.arch.machine import Event, SimStats, TimingSimulator
from repro.arch.multicore import MulticoreSimulator, MulticoreStats
from repro.arch.scheme import Scheme
from repro.arch.trace import unpack_events


class OracleSimulator(TimingSimulator):
    """:class:`TimingSimulator` with the per-event reference loop."""

    def run(self, events: Iterable[Event]) -> SimStats:
        self._run_events(unpack_events(events))
        return self.finalize()

    def run_until(
        self,
        events,
        cycle_limit: float,
        start: int = 0,
        stop: Optional[int] = None,
        boundary_log: Optional[list] = None,
    ) -> int:
        step = self._step
        n = len(events) if stop is None else min(stop, len(events))
        i = start
        while i < n:
            if self.cycle >= cycle_limit:
                return i
            ev = events[i]
            step(ev)
            i += 1
            if boundary_log is not None and ev[0] == "b":
                boundary_log.append((i, self.prev_region_complete))
        return i

    def _run_events(self, events: Iterable[Event]) -> None:
        step = self._step
        for ev in events:
            step(ev)

    def _step(self, ev: Event) -> None:
        self.cycle += self._commit_cost
        self._c_insts.value += 1
        code = ev[0]
        if code == "a":
            return
        if code == "l":
            self._load(ev[1])
        elif code == "s":
            self._store(ev[1], is_ckpt=False)
        elif code == "c":
            self._store(ev[1], is_ckpt=True)
        elif code == "b":
            self._boundary()
        elif code == "f":
            self._sync()
        elif code == "x":
            self._store(ev[1], is_ckpt=False)
            self._sync()
        else:  # pragma: no cover - generator bug guard
            raise ValueError(f"unknown event code {code!r}")

    def _load(self, addr: int) -> None:
        self._c_loads.value += 1
        latency, to_nvm, l1_ev, llc_ev = self.hier.access(addr, False)
        penalty = latency - self._l1_lat
        if to_nvm:
            mc = (addr // self._interleave) % self._mc_count
            penalty += self._nvm_read_cyc + self._mc_extra[mc]
            self._c_nvm_reads.value += 1
            if penalty > 0:
                self.cycle += penalty * self._mlp
            if self.scheme.persist_stores and self.scheme.wpq_load_delay:
                # Stale-read avoidance (Section V-C): a load that hits
                # an in-flight WPQ word waits until that entry persists
                # -- an ordering wait, not an overlappable memory
                # latency, so the MLP discount must not apply to it.
                done = self.wpq_word_done[mc].get(addr >> 3)
                if done is not None and done > self.cycle:
                    self._c_wpq_hits.value += 1
                    self._c_df_stale.value += done - self.cycle
                    self.cycle = done
        elif penalty > 0:
            self.cycle += penalty * self._mlp
        self._evictions(l1_ev, llc_ev)


class OracleMulticore(MulticoreSimulator):
    """:class:`MulticoreSimulator` with the per-event heap stepper."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Same objects, same shared-structure wiring: only the event
        # dispatch changes.
        for core in self.cores:
            core.__class__ = OracleSimulator

    def run(self, traces: Sequence[List[Event]]) -> MulticoreStats:
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        self._run_events([unpack_events(t) for t in traces])
        return self._finalize()

    def run_until(
        self,
        traces: Sequence[List[Event]],
        cycle_limit: float,
        cursors: Optional[List[int]] = None,
        max_events: Optional[int] = None,
    ) -> List[int]:
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        traces = [unpack_events(t) for t in traces]
        if cursors is None:
            cursors = [0] * len(traces)
        else:
            cursors = list(cursors)
        heap: List[Tuple[float, int]] = [
            (self.cores[idx].cycle, idx)
            for idx in range(len(traces))
            if cursors[idx] < len(traces[idx])
        ]
        heapq.heapify(heap)
        dispatched = 0
        while heap:
            clock, idx = heapq.heappop(heap)
            if clock >= cycle_limit:
                break
            if max_events is not None and dispatched >= max_events:
                break
            core = self.cores[idx]
            core._step(traces[idx][cursors[idx]])
            cursors[idx] += 1
            dispatched += 1
            if cursors[idx] < len(traces[idx]):
                heapq.heappush(heap, (core.cycle, idx))
        return cursors

    def _run_events(self, traces: Sequence[List[Event]]) -> None:
        iters = [iter(t) for t in traces]
        # Min-heap on local core time: approximately global time order.
        heap: List[Tuple[float, int]] = []
        for idx, it in enumerate(iters):
            heap.append((0.0, idx))
        heapq.heapify(heap)
        pending: Dict[int, Optional[Event]] = {}
        for idx, it in enumerate(iters):
            pending[idx] = next(it, None)
        while heap:
            _, idx = heapq.heappop(heap)
            ev = pending[idx]
            if ev is None:
                continue
            core = self.cores[idx]
            core._step(ev)
            pending[idx] = next(iters[idx], None)
            if pending[idx] is not None:
                heapq.heappush(heap, (core.cycle, idx))


def oracle_simulate(
    events: Iterable[Event],
    machine: MachineConfig,
    scheme: Scheme,
    prime: Optional[Iterable[Tuple[int, int]]] = None,
) -> SimStats:
    """:func:`repro.arch.machine.simulate` through the reference loop."""
    sim = OracleSimulator(machine, scheme)
    if prime is not None:
        sim.hier.prime(list(prime))
    return sim.run(events)
