"""Per-event reference loops for the timing simulators.

``OracleSimulator`` is :class:`TimingSimulator` with the original
one-dispatch-per-event-tuple loop (``_step``, ``_run_events``,
``_load``, ``_boundary``, ``_sync`` and the reference ``run_until``),
kept verbatim as the specification the fused ``_packed_gen`` loop must
reproduce byte for byte: the same ``SimStats``, the same cut index, the
same boundary log and the same ``snapshot()``.  ``OracleMulticore`` is
:class:`MulticoreSimulator` with the per-event min-clock heap stepper,
the specification of the fused scheduler's order.  Both inherit
construction, the store methods the fused loop still calls for atomics
and synthesized checkpoint stores (``_store``, ``_persist``,
``_evictions``) and ``snapshot()`` unchanged.  Their SRAM levels are
:class:`TickLRUCache`: LRU by access ticks and a first-minimum victim
scan, an independent statement of the replacement rule that
:class:`SetAssocCache` keeps as recency order.  Otherwise oracle and
simulator differ only in how events are dispatched.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.caches import SetAssocCache
from repro.arch.config import MachineConfig
from repro.arch.machine import _CKPT_SYNTH_BASE, Event, SimStats, TimingSimulator
from repro.arch.multicore import MulticoreSimulator, MulticoreStats
from repro.arch.scheme import Scheme
from repro.arch.trace import unpack_events


class TickLRUCache(SetAssocCache):
    """:class:`SetAssocCache` with LRU by access ticks.

    Each set maps a tag to ``[lru_tick, dirty]``; primed lines tie at
    tick 0, and the victim is the first minimum-tick line in insertion
    order.  :meth:`snapshot` lists each set's lines in (tick,
    insertion) order, which is recency order, so it compares with the
    recency-ordered cache's.
    """

    __slots__ = ("_tick",)

    def __init__(self, config) -> None:
        super().__init__(config)
        self._tick = 0

    def access(self, line_addr: int, is_write: bool):
        n_sets = self.n_sets
        index = line_addr % n_sets
        tag = line_addr // n_sets
        tick = self._tick + 1
        self._tick = tick
        ways = self.sets.setdefault(index, {})
        entry = ways.get(tag)
        if entry is not None:
            self.hits += 1
            entry[0] = tick
            if is_write:
                entry[1] = True
            return True, None
        self.misses += 1
        evicted = None
        if len(ways) >= self.ways:
            victim_tag = None
            victim_tick = tick  # every resident tick is strictly older
            for t, e in ways.items():
                if e[0] < victim_tick:
                    victim_tick = e[0]
                    victim_tag = t
            victim = ways.pop(victim_tag)
            evicted = (victim_tag * n_sets + index, victim[1])
        ways[tag] = [tick, is_write]
        return False, evicted

    def prime(self, first: int, end: int) -> None:
        for line in range(first, end):
            ways = self.sets.setdefault(line % self.n_sets, {})
            if len(ways) < self.ways:
                ways[line // self.n_sets] = [0, False]

    def invalidate(self, line_addr: int) -> None:
        ways = self.sets.get(line_addr % self.n_sets)
        if ways is not None:
            ways.pop(line_addr // self.n_sets, None)

    def snapshot(self) -> dict:
        def recency(index, ways):
            order = sorted(ways.items(), key=lambda item: item[1][0])  # stable
            return [[tag * self.n_sets + index, e[1]] for tag, e in order]

        return {
            "sets": [
                [index, recency(index, ways)]
                for index, ways in sorted(self.sets.items())
                if ways
            ],
            "hits": self.hits,
            "misses": self.misses,
        }


def _tick_lru_levels(hier, machine: MachineConfig) -> None:
    """Replace *hier*'s SRAM levels with empty :class:`TickLRUCache` ones."""
    hier.levels = [TickLRUCache(c) for c in machine.caches]


class OracleSimulator(TimingSimulator):
    """:class:`TimingSimulator` with the per-event reference loop."""

    def __init__(self, machine: MachineConfig, scheme: Scheme) -> None:
        super().__init__(machine, scheme)
        _tick_lru_levels(self.hier, machine)

    def run(self, events: Iterable[Event]) -> SimStats:
        self._run_events(unpack_events(events))
        return self.finalize()

    def run_until(
        self,
        events,
        cycle_limit: float,
        start: int = 0,
        boundary_log: Optional[list] = None,
    ) -> int:
        step = self._step
        n = len(events)
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
        elif code == "s" or code == "c":
            self._store(ev[1])
        elif code == "b":
            self._boundary()
        elif code == "f":
            self._sync()
        elif code == "x":
            self._store(ev[1])
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

    def _boundary(self) -> None:
        self._c_boundaries.value += 1
        if self._extra_region_cost:
            self.cycle += self._extra_region_cost
        scheme = self.scheme
        if scheme.ckpt_stores_per_region:
            self._ckpt_accum += scheme.ckpt_stores_per_region
            while self._ckpt_accum >= 1.0:
                self._ckpt_accum -= 1.0
                self._ckpt_addr += 8
                if self._ckpt_addr > _CKPT_SYNTH_BASE + 4096:
                    self._ckpt_addr = _CKPT_SYNTH_BASE
                self._store(self._ckpt_addr)
        if not scheme.persist_stores:
            return
        if scheme.coalesce_lines:
            self._region_lines.clear()
        complete = max(self.region_last_persist, self.prev_region_complete)
        self.prev_region_complete = complete
        self.region_last_persist = 0.0
        if scheme.mc_speculation:
            before = self.cycle
            self.cycle = self.rbt.admit(self.cycle)
            self._c_boundary_stall.value += self.cycle - before
            self.rbt.push(complete)
        elif scheme.stall_at_boundary:
            if complete > self.cycle:
                self._c_boundary_stall.value += complete - self.cycle
                self.cycle = complete
        else:
            # Capri-style battery-backed redo buffer: no boundary stall;
            # buffering capacity is modelled by the PB queue.
            pass

    def _sync(self) -> None:
        """Fence/atomic: all prior stores must persist before commit."""
        if not self.scheme.persist_stores:
            return
        target = max(self.region_last_persist, self.prev_region_complete)
        if target > self.cycle:
            self._c_boundary_stall.value += target - self.cycle
            self._c_df_sync.value += target - self.cycle
            self.cycle = target


class OracleMulticore(MulticoreSimulator):
    """:class:`MulticoreSimulator` with the per-event heap stepper."""

    def __init__(self, machine: MachineConfig, scheme: Scheme, n_cores: int,
                 share_llc: bool = True) -> None:
        super().__init__(machine, scheme, n_cores, share_llc=False)
        # Same objects, same shared-structure wiring: only the event
        # dispatch and the SRAM levels change.
        for core in self.cores:
            core.__class__ = OracleSimulator
            _tick_lru_levels(core.hier, machine)
        if share_llc:
            self._share_llc_tags()

    def run(self, traces: Sequence[List[Event]]) -> MulticoreStats:
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        self._run_events([unpack_events(t) for t in traces])
        return self._finalize()

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
