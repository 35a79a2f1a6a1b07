"""The trace-driven timing simulator.

Consumes a committed-instruction event stream and advances a cycle
clock through queue-of-completion-timestamp models of every structure
in Figure 3(b)/Figure 9 of the paper: L1D write buffer (WB), persist
buffer (PB), persist path, region boundary table (RBT), per-MC
write-pending queues (WPQ), and the NVM devices.

Event encoding (one tuple per committed instruction):

====  =======================  =========================
code  meaning                  payload
====  =======================  =========================
'a'   ALU / control            --
'l'   load                     address
's'   store                    address
'c'   checkpoint store         address (checkpoint slot)
'b'   region boundary          --
'f'   fence                    --
'x'   atomic RMW               address
====  =======================  =========================

Every entry point -- :meth:`TimingSimulator.run`, ``run_until`` (the
intermittent-power model's cycle cut) and the multicore scheduler --
commits events through one loop, the fused coroutine
:meth:`TimingSimulator._packed_gen`.  The per-event reference loop it
was hand-inlined from is kept in ``tests/sim_oracle.py`` as the
specification the tests diff it against.
"""

from __future__ import annotations

from itertools import islice
from operator import length_hint
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arch.caches import CacheHierarchy
from repro.arch.config import MachineConfig
from repro.arch.metrics import MetricSet, SimStats
from repro.arch.queues import CompletionQueue
from repro.arch.scheme import Scheme
from repro.arch.trace import PackedTrace, as_packed

Event = Tuple  # (code,) or (code, addr)

_CKPT_SYNTH_BASE = 0x0F80_0000
INF = float("inf")


class TimingSimulator:
    """One core's commit stream against the shared memory system.

    Every stream runs through the fused loop (:meth:`_packed_gen`):
    plain event lists are packed once at entry, and any cache geometry
    is accepted.
    """

    def __init__(self, machine: MachineConfig, scheme: Scheme) -> None:
        self.machine = machine
        self.scheme = scheme
        self.hier = CacheHierarchy(machine.caches, machine.dram_cache if scheme.dram_cache_enabled else None)
        self.cycle = 0.0
        #: Index of the first unexecuted event of the last trace run.
        self.cursor = 0
        self.wb = CompletionQueue(machine.wb_entries)
        self.pb = CompletionQueue(scheme.pb_entries_override or machine.pb_entries)
        self.rbt = CompletionQueue(scheme.rbt_entries_override or machine.rbt_entries)
        self.wpq: List[CompletionQueue] = [
            CompletionQueue(machine.wpq_entries) for _ in range(machine.mc_count)
        ]
        self.path_free = 0.0
        self.nvm_free = [0.0] * machine.mc_count
        self.line_persist_time: Dict[int, float] = {}
        self.wpq_word_done: List[Dict[int, float]] = [dict() for _ in range(machine.mc_count)]
        self.region_last_persist = 0.0
        self.prev_region_complete = 0.0
        self._ckpt_accum = 0.0
        self._ckpt_addr = _CKPT_SYNTH_BASE
        self._region_lines: set = set()
        # Precomputed constants (hot loop).
        self._commit_cost = 1.0 / machine.commit_width
        self._l1_lat = machine.caches[0].hit_latency
        self._mlp = machine.mlp_factor
        self._path_send_cycles = scheme.persist_bytes * machine.path_cycles_per_byte()
        self._path_lat = machine.persist_lat_cycles()
        self._mc_extra = [machine.ns(x) for x in machine.mc_extra_ns]
        self._nvm_read_cyc = machine.ns(machine.nvm.total_read_ns)
        self._nvm_write_cyc = machine.ns(machine.nvm.total_write_ns)
        self._nvm_cpb = machine.nvm_write_cycles_per_byte()
        self._nvm_write_bytes = scheme.persist_bytes * scheme.nvm_write_amp
        self._wpq_drain_overhead = machine.ns(5.0)
        self._line_bits = self.hier.line_bits
        self._extra_store_cost = scheme.extra_insts_per_store * self._commit_cost
        self._extra_region_cost = scheme.extra_insts_per_region * self._commit_cost
        # Derived constants shared by the rare-path methods and the
        # fused loop (same multiplications, done once).
        self._media_cost = self._nvm_write_bytes * self._nvm_cpb
        self._llc_wb_cost = 64 * self._nvm_cpb
        self._l2_lat = machine.caches[min(1, len(machine.caches) - 1)].hit_latency
        self._interleave = machine.interleave
        self._mc_count = machine.mc_count
        # Pre-create the L1 set dicts so the hot loop indexes them
        # directly (presence of empty sets is invisible to results).
        l1 = self.hier.levels[0]
        for i in range(l1.n_sets):
            l1.sets.setdefault(i, {})
        self.stats = SimStats(scheme=scheme.name)
        # Core-owned records, bound once for the hot loop.
        m = self.stats.metrics
        self._c_insts = m.counter("core.insts")
        self._c_loads = m.counter("core.loads")
        self._c_stores = m.counter("core.stores")
        self._c_boundaries = m.counter("core.boundaries")
        self._c_boundary_stall = m.counter("core.boundary_stall_cycles")
        self._c_nvm_reads = m.counter("nvm.reads")
        self._c_nvm_writes = m.counter("nvm.writes")
        self._c_path_bytes = m.counter("path.bytes")
        self._c_wb_delays = m.counter("wb.delays")
        self._c_wpq_hits = m.counter("wpq.load_hits")
        # Delay-free accounting (Ben-David et al. yardstick): cycles the
        # core spends blocked on persistence where a delay-free design
        # would not block -- stale-read ordering waits and the sync-point
        # (fence/atomic) slice of the boundary stalls.
        self._c_df_stale = m.counter("delayfree.stale_wait_cycles")
        self._c_df_sync = m.counter("delayfree.sync_stall_cycles")

    # ------------------------------------------------------------------
    def run(self, events: Iterable[Event]) -> SimStats:
        """Commit an event stream and finalize the stats.

        A stream that is not a :class:`PackedTrace` is packed once
        (``as_packed``); tests/test_golden_identity.py pins the stats
        byte for byte.
        """
        self.run_until(events, INF)
        return self.finalize()

    def run_until(
        self,
        events,
        cycle_limit: float,
        start: int = 0,
        boundary_log: Optional[list] = None,
    ) -> int:
        """Commit ``events[start:]`` until the clock reaches
        *cycle_limit*; returns the index of the first unexecuted event.

        The cut lands *between* committed events: an event whose
        pre-commit clock is below the limit executes in full (possibly
        pushing the clock past the limit); nothing after it runs.  This
        is the cut-at-an-arbitrary-cycle primitive the intermittent-power
        model builds on -- state after ``run_until(t, c, 0)`` plus the
        remaining events is identical to an uninterrupted run.  ``run``
        is this call with an infinite limit.

        ``boundary_log``, when given, collects ``(next_index,
        prev_region_complete)`` after every region boundary: the event
        cursor a power-failure recovery can durably resume from, and
        the cycle by which everything before it had persisted.
        """
        gen = self._packed_gen(as_packed(events), 0, start, cycle_limit, boundary_log)
        next(gen)  # run the locals setup, park before the first event
        try:
            gen.send((INF, 0))
        except StopIteration:
            return self.cursor
        raise RuntimeError(  # pragma: no cover - scheduling bug guard
            "packed loop yielded under an infinite limit"
        )

    # -- state, for the tests -------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Every mutable field, as JSON-serializable data.

        The tests diff a cut run's state against the reference loop's
        with it.  Deterministic: every dict that could carry observable
        iteration order (LRU tag maps) is emitted as an ordered list.
        """
        return {
            "cycle": self.cycle,
            "path_free": self.path_free,
            "line_persist_time": [
                [line, t] for line, t in self.line_persist_time.items()
            ],
            "region_last_persist": self.region_last_persist,
            "prev_region_complete": self.prev_region_complete,
            "ckpt_accum": self._ckpt_accum,
            "ckpt_addr": self._ckpt_addr,
            "region_lines": sorted(self._region_lines),
            "wb": self.wb.snapshot(),
            "pb": self.pb.snapshot(),
            "rbt": self.rbt.snapshot(),
            "hier": self.hier.snapshot(),
            "metrics": self.stats.metrics.to_dict(),
            "wpq": [q.snapshot() for q in self.wpq],
            "nvm_free": list(self.nvm_free),
            "wpq_word_done": [
                [[word, t] for word, t in words.items()]
                for words in self.wpq_word_done
            ],
        }

    def _packed_gen(
        self,
        trace: PackedTrace,
        idx: int = 0,
        start: int = 0,
        cut: float = INF,
        boundary_log: Optional[list] = None,
    ):
        """The event loop, as a coroutine: commits ``trace[start:]``.

        Every committed event in the simulator goes through here.  The
        ``a``/``l``/``s``/``c`` cases (the bulk of every stream) are
        inlined with all hot state held in locals; the rare
        ``b``/``f``/``x`` cases sync state back to ``self``, call
        :meth:`_boundary`/:meth:`_sync`/:meth:`_store`, and reload.
        See DESIGN.md ("Hot-loop optimization invariants") for what
        this loop may and may not reorder -- every float operation
        below happens in the same order, on the same values, as in the
        reference loop of tests/sim_oracle.py.

        The loop stops before the first event whose pre-commit clock is
        at or past *cut*.  Whatever ends it -- the trace runs out or the
        cut -- the ``finally`` block writes the localized state back and
        sets ``self.cursor`` to the index of the first unexecuted event.
        ``boundary_log`` is the :meth:`run_until` boundary log.

        Multi-core scheduling protocol (see DESIGN.md section 7c): the
        caller primes the generator with ``next()``, then ``send()``s
        ``(limit_cycle, limit_idx)`` -- the smallest pre-event
        ``(clock, core)`` pair among the *other* cores.  Events that
        touch only core-private state (ALU ops, L1 hits, fences,
        coalesced persists) run unconditionally; before an event that
        touches shared state (L2+/DRAM tags, WPQs, NVM bandwidth) the
        generator yields its own pre-event clock while it is not the
        minimum, and the scheduler resumes whichever core is.  The
        generator frame keeps every localized scalar alive across
        yields, so blocking costs one comparison, not a state reload.
        """
        # -- constants ------------------------------------------------
        commit_cost = self._commit_cost
        l1_lat = self._l1_lat
        l2_lat = self._l2_lat
        mlp = self._mlp
        path_send = self._path_send_cycles
        path_lat = self._path_lat
        mc_extra = self._mc_extra
        nvm_read_cyc = self._nvm_read_cyc
        media = self._media_cost
        llc_wb_cost = self._llc_wb_cost
        wpq_drain = self._wpq_drain_overhead
        line_bits = self._line_bits
        extra_store_cost = self._extra_store_cost
        scheme = self.scheme
        persist_stores = scheme.persist_stores
        persist_bytes = scheme.persist_bytes
        coalesce = scheme.coalesce_lines
        wpq_delay_on = persist_stores and scheme.wpq_load_delay
        wb_delay_on = persist_stores and scheme.wb_delay
        # -- bound callables / shared containers ----------------------
        hier_miss = self.hier.miss
        l1 = self.hier.levels[0]
        l1_sets = l1.sets
        l1_nsets = l1.n_sets
        l1_ways_cap = l1.ways
        # Sets are pre-created (__init__), so a list view gives C-array
        # indexing; the dicts are never replaced.
        l1_setlist = [l1_sets[i] for i in range(l1_nsets)]
        levels = self.hier.levels
        multi_level = len(levels) > 1
        if multi_level:
            l2 = levels[1]
            l2_sets = l2.sets
            l2_nsets = l2.n_sets
            l2_ways_cap = l2.ways
            l2_hit_lat = l2.hit_latency
            llc_from_l2 = len(levels) == 2 and self.hier.dram is None
        interleave = self._interleave
        mc_count = self._mc_count
        wb = self.wb
        wb_entries = wb.entries
        wb_capacity = wb.capacity
        wb_admit = wb.admit
        pb = self.pb
        pb_entries = pb.entries
        pb_capacity = pb.capacity
        pb_admit = pb.admit
        wpq = self.wpq
        wpq_capacity = wpq[0].capacity
        nvm_free = self.nvm_free
        line_persist_time = self.line_persist_time
        wpq_word_done = self.wpq_word_done
        region_lines = self._region_lines
        # -- mutable scalars, localized -------------------------------
        cycle = self.cycle
        path_free = self.path_free
        region_last_persist = self.region_last_persist
        l1_tick = l1._tick
        l1_hits = l1.hits
        l1_misses = l1.misses
        n_nvm_reads = 0
        n_nvm_writes = 0
        n_path_bytes = 0
        n_wb_delays = 0
        n_wpq_hits = 0
        n_df_stale = 0.0

        # -- the event slice --------------------------------------------
        # The start rides on the itertools "consume" recipe, at C speed;
        # the position is never counted per event but read back from the
        # code iterator's length hint (rare path and exit only).
        codes = trace.codes
        n = len(codes)
        start = min(start, n)
        codes_iter = iter(codes)
        addrs_iter = iter(trace.addrs)
        if start:
            next(islice(codes_iter, start, start), None)
            next(islice(addrs_iter, start, start), None)
        events = zip(codes_iter, addrs_iter)
        self.cursor = start

        # Scheduling handshake: park until the caller sends the first
        # (limit_cycle, limit_idx) pair.
        limit_c, limit_i = yield

        # The zip pulls an event before the body runs, so every exit
        # but running out (the cut) leaves one pulled event unexecuted.
        pulled = 1
        try:
            for code, addr in events:
                if cycle >= cut:
                    break
                if code == "a":
                    cycle += commit_cost
                    continue
                if code == "l":
                    # ---- load (L1 probe unrolled) -----------------------
                    # The L1 probe is a pure read of private state, so it
                    # doubles as the shared/private classification: a hit
                    # never leaves the core.
                    l1_line = addr >> line_bits
                    index = l1_line % l1_nsets
                    tag = l1_line // l1_nsets
                    ways = l1_setlist[index]
                    entry = ways.get(tag)
                    if entry is not None:
                        # L1 hit: zero penalty, no evictions, next event.
                        cycle += commit_cost
                        l1_tick += 1
                        l1_hits += 1
                        entry[0] = l1_tick
                        continue
                    # L1 miss: L2+/DRAM tags and NVM state are shared.
                    while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                        limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    l1_tick += 1
                    l1_misses += 1
                    if len(ways) >= l1_ways_cap:
                        victim_tag = None
                        victim_tick = l1_tick
                        for t, e in ways.items():
                            et = e[0]
                            if et < victim_tick:
                                victim_tick = et
                                victim_tag = t
                        victim = ways.pop(victim_tag)
                        l1_ev = victim_tag * l1_nsets + index if victim[1] else None
                    else:
                        l1_ev = None
                    ways[tag] = [l1_tick, False]
                    # ---- inlined L2 probe (walk resumes at level 2) -----
                    if multi_level:
                        l2._tick = l2_tick = l2._tick + 1
                        index2 = l1_line % l2_nsets
                        tag2 = l1_line // l2_nsets
                        ways2 = l2_sets.get(index2)
                        if ways2 is None:
                            ways2 = l2_sets[index2] = {}
                        entry2 = ways2.get(tag2)
                        if entry2 is not None:
                            l2.hits += 1
                            entry2[0] = l2_tick
                            latency = l2_hit_lat
                            to_nvm = False
                            llc_ev = None
                        else:
                            l2.misses += 1
                            if len(ways2) >= l2_ways_cap:
                                victim_tag = None
                                victim_tick = l2_tick
                                for t, e in ways2.items():
                                    et = e[0]
                                    if et < victim_tick:
                                        victim_tick = et
                                        victim_tag = t
                                victim = ways2.pop(victim_tag)
                                llc2 = (
                                    victim_tag * l2_nsets + index2
                                    if llc_from_l2 and victim[1]
                                    else None
                                )
                            else:
                                llc2 = None
                            ways2[tag2] = [l2_tick, False]
                            latency, to_nvm, llc_ev = hier_miss(l1_line, False, 2)
                            if llc_from_l2:
                                llc_ev = llc2
                    else:
                        latency, to_nvm, llc_ev = hier_miss(l1_line, False)
                    penalty = latency - l1_lat
                    if to_nvm:
                        mc = (addr // interleave) % mc_count
                        penalty += nvm_read_cyc + mc_extra[mc]
                        n_nvm_reads += 1
                        if penalty > 0:
                            cycle += penalty * mlp
                        if wpq_delay_on:
                            # Ordering wait, not memory latency: no MLP
                            # discount.
                            done = wpq_word_done[mc].get(addr >> 3)
                            if done is not None and done > cycle:
                                n_wpq_hits += 1
                                n_df_stale += done - cycle
                                cycle = done
                    elif penalty > 0:
                        cycle += penalty * mlp
                    # ---- inlined _evictions (load path) -----------------
                    if l1_ev is not None:
                        # wb.admit(cycle), advance unrolled (full WB is
                        # rare and delegates to the reference method).
                        last = wb._last_t
                        occ = wb.occ_integral
                        while wb_entries and wb_entries[0] <= cycle:
                            t = wb_entries.popleft()
                            if t > last:
                                occ += (len(wb_entries) + 1) * (t - last)
                                last = t
                        if cycle > last:
                            occ += len(wb_entries) * (cycle - last)
                            last = cycle
                        wb._last_t = last
                        wb.occ_integral = occ
                        if len(wb_entries) >= wb_capacity:
                            cycle = wb_admit(cycle)
                        drain = cycle + l2_lat
                        if wb_delay_on:
                            persist = line_persist_time.get(l1_ev, 0.0)
                            if persist > drain:
                                drain = persist
                                n_wb_delays += 1
                        wb.pushes += 1
                        if wb_entries and drain < wb_entries[-1]:
                            wb_entries.append(wb_entries[-1])
                        else:
                            wb_entries.append(drain)
                    if llc_ev is not None and not persist_stores:
                        mc = ((llc_ev << line_bits) // interleave) % mc_count
                        free = nvm_free[mc]
                        begin = cycle if cycle > free else free
                        nvm_free[mc] = begin + llc_wb_cost
                        n_nvm_writes += 1
                elif code == "s" or code == "c":
                    # ---- inlined _store ('c' is a store: is_ckpt is
                    # latency-neutral in the reference method) ------------
                    # Shared iff the L1 probe misses (L2+/DRAM tags) or the
                    # persist path engages (WPQ/NVM); a store merged into
                    # an already-buffered dirty line never leaves the core.
                    l1_line = addr >> line_bits
                    index = l1_line % l1_nsets
                    tag = l1_line // l1_nsets
                    ways = l1_setlist[index]
                    entry = ways.get(tag)
                    if entry is None or (
                        persist_stores and not (coalesce and l1_line in region_lines)
                    ):
                        while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                            limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    if extra_store_cost:
                        cycle += extra_store_cost
                    l1_tick += 1
                    if entry is not None:
                        l1_hits += 1
                        entry[0] = l1_tick
                        entry[1] = True
                    else:
                        l1_misses += 1
                        if len(ways) >= l1_ways_cap:
                            victim_tag = None
                            victim_tick = l1_tick
                            for t, e in ways.items():
                                et = e[0]
                                if et < victim_tick:
                                    victim_tick = et
                                    victim_tag = t
                            victim = ways.pop(victim_tag)
                            l1_ev = victim_tag * l1_nsets + index if victim[1] else None
                        else:
                            l1_ev = None
                        ways[tag] = [l1_tick, True]
                        # ---- inlined L2 probe (store miss) --------------
                        if multi_level:
                            l2._tick = l2_tick = l2._tick + 1
                            index2 = l1_line % l2_nsets
                            tag2 = l1_line // l2_nsets
                            ways2 = l2_sets.get(index2)
                            if ways2 is None:
                                ways2 = l2_sets[index2] = {}
                            entry2 = ways2.get(tag2)
                            if entry2 is not None:
                                l2.hits += 1
                                entry2[0] = l2_tick
                                entry2[1] = True
                                llc_ev = None
                            else:
                                l2.misses += 1
                                if len(ways2) >= l2_ways_cap:
                                    victim_tag = None
                                    victim_tick = l2_tick
                                    for t, e in ways2.items():
                                        et = e[0]
                                        if et < victim_tick:
                                            victim_tick = et
                                            victim_tag = t
                                    victim = ways2.pop(victim_tag)
                                    llc2 = (
                                        victim_tag * l2_nsets + index2
                                        if llc_from_l2 and victim[1]
                                        else None
                                    )
                                else:
                                    llc2 = None
                                ways2[tag2] = [l2_tick, True]
                                _, _, llc_ev = hier_miss(l1_line, True, 2)
                                if llc_from_l2:
                                    llc_ev = llc2
                        else:
                            _, _, llc_ev = hier_miss(l1_line, True)
                        # ---- inlined _evictions (store-miss path) -------
                        if l1_ev is not None:
                            last = wb._last_t
                            occ = wb.occ_integral
                            while wb_entries and wb_entries[0] <= cycle:
                                t = wb_entries.popleft()
                                if t > last:
                                    occ += (len(wb_entries) + 1) * (t - last)
                                    last = t
                            if cycle > last:
                                occ += len(wb_entries) * (cycle - last)
                                last = cycle
                            wb._last_t = last
                            wb.occ_integral = occ
                            if len(wb_entries) >= wb_capacity:
                                cycle = wb_admit(cycle)
                            drain = cycle + l2_lat
                            if wb_delay_on:
                                persist = line_persist_time.get(l1_ev, 0.0)
                                if persist > drain:
                                    drain = persist
                                    n_wb_delays += 1
                            wb.pushes += 1
                            if wb_entries and drain < wb_entries[-1]:
                                wb_entries.append(wb_entries[-1])
                            else:
                                wb_entries.append(drain)
                        if llc_ev is not None and not persist_stores:
                            mc = ((llc_ev << line_bits) // interleave) % mc_count
                            free = nvm_free[mc]
                            begin = cycle if cycle > free else free
                            nvm_free[mc] = begin + llc_wb_cost
                            n_nvm_writes += 1
                    if not persist_stores:
                        continue
                    # ---- inlined _persist -------------------------------
                    if coalesce:
                        if l1_line in region_lines:
                            continue  # merged into the buffered dirty line
                        region_lines.add(l1_line)
                    # pb.admit(cycle), advance unrolled (full PB is rare
                    # and delegates to the reference method).
                    last = pb._last_t
                    occ = pb.occ_integral
                    while pb_entries and pb_entries[0] <= cycle:
                        t = pb_entries.popleft()
                        if t > last:
                            occ += (len(pb_entries) + 1) * (t - last)
                            last = t
                    if cycle > last:
                        occ += len(pb_entries) * (cycle - last)
                        last = cycle
                    pb._last_t = last
                    pb.occ_integral = occ
                    if len(pb_entries) >= pb_capacity:
                        cycle = pb_admit(cycle)
                    send = cycle if cycle > path_free else path_free
                    path_free = send + path_send
                    mc = (addr // interleave) % mc_count
                    arrive = send + path_lat + mc_extra[mc]
                    # wpq[mc].admit(arrive), same unrolling.
                    q = wpq[mc]
                    we = q.entries
                    last = q._last_t
                    occ = q.occ_integral
                    while we and we[0] <= arrive:
                        t = we.popleft()
                        if t > last:
                            occ += (len(we) + 1) * (t - last)
                            last = t
                    if arrive > last:
                        occ += len(we) * (arrive - last)
                        last = arrive
                    q._last_t = last
                    q.occ_integral = occ
                    if len(we) >= wpq_capacity:
                        admitted = q.admit(arrive)
                    else:
                        admitted = arrive
                    free = nvm_free[mc]
                    begin = admitted if admitted > free else free
                    nvm_free[mc] = begin + media
                    drain_done = begin + media + wpq_drain
                    # wpq[mc].push(drain_done) / pb.push(admitted): FIFO
                    # completion clamp, counted on the queue objects.
                    q.pushes += 1
                    if we and drain_done < we[-1]:
                        we.append(we[-1])
                    else:
                        we.append(drain_done)
                    pb.pushes += 1
                    if pb_entries and admitted < pb_entries[-1]:
                        pb_entries.append(pb_entries[-1])
                    else:
                        pb_entries.append(admitted)
                    if admitted > region_last_persist:
                        region_last_persist = admitted
                    if admitted > line_persist_time.get(l1_line, 0.0):
                        line_persist_time[l1_line] = admitted
                    words = wpq_word_done[mc]
                    words[addr >> 3] = drain_done
                    if len(words) > 8192:
                        wpq_word_done[mc] = {w: t for w, t in words.items() if t > cycle}
                    n_path_bytes += persist_bytes
                    n_nvm_writes += 1
                elif code == "b" or code == "f" or code == "x":
                    # Rare events: run through the reference methods.  A
                    # fence orders only this core's stream (private); a
                    # boundary can synthesize checkpoint stores and an
                    # atomic is store+fence, so both are gated as shared.
                    if code != "f":
                        while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                            limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    self.cycle = cycle
                    self.path_free = path_free
                    self.region_last_persist = region_last_persist
                    l1._tick = l1_tick
                    l1.hits = l1_hits
                    l1.misses = l1_misses
                    if code == "b":
                        self._boundary()
                        if boundary_log is not None:
                            boundary_log.append(
                                (n - length_hint(codes_iter), self.prev_region_complete)
                            )
                    elif code == "f":
                        self._sync()
                    else:
                        self._store(addr, is_ckpt=False)
                        self._sync()
                    cycle = self.cycle
                    path_free = self.path_free
                    region_last_persist = self.region_last_persist
                    l1_tick = l1._tick
                    l1_hits = l1.hits
                    l1_misses = l1.misses
                else:  # pragma: no cover - generator bug guard
                    raise ValueError(f"unknown event code {code!r}")
            else:
                pulled = 0
        finally:
            # -- write the localized state back -----------------------
            end = n - length_hint(codes_iter) - pulled
            self.cursor = end
            self.cycle = cycle
            self.path_free = path_free
            self.region_last_persist = region_last_persist
            l1._tick = l1_tick
            l1.hits = l1_hits
            l1.misses = l1_misses
            # Counter flushes are integer-valued additions: exact in
            # float (well below 2^53), so batching them preserves value
            # identity.  Event-class totals come from C-speed counts
            # over the executed codes -- the loop never increments them
            # (rare-path methods update their own counters directly and
            # are not re-counted).
            self._c_insts.value += end - start
            self._c_loads.value += codes.count("l", start, end)
            self._c_stores.value += codes.count("s", start, end) + codes.count(
                "c", start, end
            )
            self._c_nvm_reads.value += n_nvm_reads
            self._c_nvm_writes.value += n_nvm_writes
            self._c_path_bytes.value += n_path_bytes
            self._c_wb_delays.value += n_wb_delays
            self._c_wpq_hits.value += n_wpq_hits
            self._c_df_stale.value += n_df_stale

    def finalize(self, shared_owner: bool = True) -> SimStats:
        """Drain outstanding persists and collect component metrics.

        ``shared_owner=False`` is the multi-core path for cores 1..N-1:
        the WPQs are shared objects referenced by every core, so only
        one core (the owner) contributes their records to avoid double
        counting.
        """
        if self.scheme.persist_stores:
            self.cycle = max(self.cycle, self.region_last_persist, self.prev_region_complete)
        m = self.stats.metrics
        m.gauge("core.cycles").value = self.cycle
        self.hier.contribute(m)
        self.wb.contribute(m, "wb", self.cycle)
        self.pb.contribute(m, "pb", self.cycle)
        self.rbt.contribute(m, "rbt", self.cycle)
        if shared_owner:
            for q in self.wpq:
                q.contribute(m, "wpq", self.cycle)
        return self.stats

    # ------------------------------------------------------------------
    def _store(self, addr: int, is_ckpt: bool) -> None:
        self._c_stores.value += 1
        if self._extra_store_cost:
            self.cycle += self._extra_store_cost
        _, _, l1_ev, llc_ev = self.hier.access(addr, True)
        self._evictions(l1_ev, llc_ev)
        if self.scheme.persist_stores:
            self._persist(addr)

    def _persist(self, addr: int) -> None:
        """Copy a committed store onto the persist path (Section V-A)."""
        if self.scheme.coalesce_lines:
            line = addr >> self._line_bits
            if line in self._region_lines:
                return  # merged into the already-buffered dirty line
            self._region_lines.add(line)
        # PB admission backpressures the core when full.
        self.cycle = self.pb.admit(self.cycle)
        send = self.cycle if self.cycle > self.path_free else self.path_free
        self.path_free = send + self._path_send_cycles
        mc = (addr // self._interleave) % self._mc_count
        arrive = send + self._path_lat + self._mc_extra[mc]
        # WPQ admission: the entry waits in-path while the WPQ is full.
        admitted = self.wpq[mc].admit(arrive)
        # NVM media write: serialized per MC at the device's bandwidth.
        # The WPQ is battery-backed and the DIMM buffers internally, so
        # an entry leaves the WPQ at handoff-bandwidth pace, not after
        # the full media write latency.
        start = admitted if admitted > self.nvm_free[mc] else self.nvm_free[mc]
        media = self._media_cost
        self.nvm_free[mc] = start + media
        drain_done = start + media + self._wpq_drain_overhead
        self.wpq[mc].push(drain_done)
        # The WPQ is the persistence domain: persisted on admission.
        persisted = admitted
        self.pb.push(persisted)
        if persisted > self.region_last_persist:
            self.region_last_persist = persisted
        line = addr >> self._line_bits
        prev = self.line_persist_time.get(line, 0.0)
        if persisted > prev:
            self.line_persist_time[line] = persisted
        words = self.wpq_word_done[mc]
        words[addr >> 3] = drain_done
        if len(words) > 8192:
            now = self.cycle
            self.wpq_word_done[mc] = {w: t for w, t in words.items() if t > now}
        self._c_path_bytes.value += self.scheme.persist_bytes
        self._c_nvm_writes.value += 1

    def _evictions(self, l1_ev: Optional[int], llc_ev: Optional[int]) -> None:
        if l1_ev is not None:
            # Dirty L1 line enters the WB; its drain to L2 is delayed
            # while a matching PB entry is in flight (stale-read fix).
            self.cycle = self.wb.admit(self.cycle)
            drain = self.cycle + self._l2_lat
            if self.scheme.persist_stores and self.scheme.wb_delay:
                persist = self.line_persist_time.get(l1_ev, 0.0)
                if persist > drain:
                    drain = persist
                    self._c_wb_delays.value += 1
            self.wb.push(drain)
        if llc_ev is not None:
            if self.scheme.persist_stores:
                # cWSP-style schemes drop dirty LLC evictions: the
                # persist path already delivered the data to NVM.
                return
            mc = ((llc_ev << self._line_bits) // self._interleave) % self._mc_count
            start = max(self.cycle, self.nvm_free[mc])
            self.nvm_free[mc] = start + self._llc_wb_cost
            self._c_nvm_writes.value += 1

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
                self._store(self._ckpt_addr, is_ckpt=True)
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


def simulate(
    events: Iterable[Event],
    machine: MachineConfig,
    scheme: Scheme,
    prime: Optional[Iterable[Tuple[int, int]]] = None,
) -> SimStats:
    """Run *events* through a fresh simulator; return its stats.

    ``prime`` is an iterable of (base, size) address ranges used to
    warm the cache hierarchy before timing starts (see
    :meth:`CacheHierarchy.prime`).
    """
    sim = TimingSimulator(machine, scheme)
    if prime is not None:
        sim.hier.prime(list(prime))
    return sim.run(events)
