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

from dataclasses import replace
from itertools import islice
from operator import length_hint
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arch.caches import CacheHierarchy
from repro.arch.config import MachineConfig
from repro.arch.metrics import SimStats
from repro.arch.queues import CompletionQueue
from repro.arch.scheme import Scheme
from repro.arch.trace import PackedTrace, as_packed

Event = Tuple  # (code,) or (code, addr)

_CKPT_SYNTH_BASE = 0x0F80_0000
INF = float("inf")

#: The completion queues whose capacities :func:`queue_capacities`
#: returns, in its order.
QUEUES = ("wb", "pb", "rbt", "wpq")

Sibling = Tuple[str, Tuple[int, ...]]


def queue_capacities(machine: MachineConfig, scheme: Scheme) -> Tuple[int, ...]:
    """Entries of each of :data:`QUEUES` in a run of *scheme* on *machine*
    (a scheme's PB/RBT sizing wins over the machine's)."""
    return (
        machine.wb_entries,
        scheme.pb_entries_override or machine.pb_entries,
        scheme.rbt_entries_override or machine.rbt_entries,
        machine.wpq_entries,
    )


def sibling(machine: MachineConfig, scheme: Scheme) -> Sibling:
    """``(rest, capacities)``: everything else of *machine* and *scheme*,
    rendered by ``repr`` (which tells ``1``, ``1.0`` and ``True`` apart),
    and :func:`queue_capacities`.  Single-core points of one trace whose
    ``rest`` is equal are capacity siblings."""
    rest = (
        replace(machine, wb_entries=0, pb_entries=0, rbt_entries=0, wpq_entries=0),
        replace(scheme, pb_entries_override=None, rbt_entries_override=None),
    )
    return repr(rest), queue_capacities(machine, scheme)


def serves(witness: Sibling, stats: SimStats, point: Sibling) -> bool:
    """Whether a single-core run of *witness* that produced *stats* is, on
    the same trace, also the run of *point*.

    The loop reads a queue's capacity only in its full check, and every
    full admit counts in ``<queue>.full_stalls``.  A run that never
    filled a queue therefore takes the same path at any larger capacity
    of it (Mattson et al.'s inclusion property, for completion queues).
    So *witness* serves *point* when ``rest`` is equal and each capacity
    is equal, or larger where the witness never filled that queue.
    """
    if witness[0] != point[0]:
        return False
    metrics = stats.metrics
    return all(
        mine == theirs or (mine > theirs and not metrics.value(f"{queue}.full_stalls"))
        for queue, theirs, mine in zip(QUEUES, witness[1], point[1])
    )


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
        wb, pb, rbt, wpq = queue_capacities(machine, scheme)
        self.wb = CompletionQueue(wb)
        self.pb = CompletionQueue(pb)
        self.rbt = CompletionQueue(rbt)
        self.wpq: List[CompletionQueue] = [
            CompletionQueue(wpq) for _ in range(machine.mc_count)
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

        Every committed event in the simulator goes through here, every
        event code inlined with the core-private state (clock, L1 miss
        tally, PB and RBT clocks and occupancy integrals) held in
        locals.  Only the store of an atomic (``x``) and the checkpoint
        stores a boundary synthesizes sync state back to ``self``, call
        :meth:`_store`, and reload.
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
        coalesced persists, boundaries that synthesize no checkpoint
        stores) run unconditionally; before an event that touches
        shared state (L2+/DRAM tags, WPQs, NVM bandwidth) the generator
        yields its own pre-event clock while it is not the minimum, and
        the scheduler resumes whichever core is.  The generator frame
        keeps every localized scalar alive across yields, so blocking
        costs one comparison, not a state reload; no shared state is
        ever held in a local across a yield.
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
        extra_region_cost = self._extra_region_cost
        scheme = self.scheme
        persist_stores = scheme.persist_stores
        coalesce = scheme.coalesce_lines
        ckpt_per_region = scheme.ckpt_stores_per_region
        mc_speculation = scheme.mc_speculation
        stall_at_boundary = scheme.stall_at_boundary
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
        rbt = self.rbt
        rbt_entries = rbt.entries
        rbt_capacity = rbt.capacity
        rbt_admit = rbt.admit
        wpq = self.wpq
        wpq_capacity = wpq[0].capacity
        nvm_free = self.nvm_free
        line_persist_time = self.line_persist_time
        wpq_word_done = self.wpq_word_done
        region_lines = self._region_lines
        # -- mutable scalars, localized -------------------------------
        # Core-private only: the shared WPQ clocks, nvm_free,
        # wpq_word_done and L2+/DRAM tags are read and written in place.
        cycle = self.cycle
        path_free = self.path_free
        region_last_persist = self.region_last_persist
        prev_region_complete = self.prev_region_complete
        l1_misses = 0  # inline misses; inline hits are derived at exit
        pb_last, pb_occ = pb._last_t, pb.occ_integral
        rbt_last, rbt_occ = rbt._last_t, rbt.occ_integral
        n_nvm_reads = 0
        n_llc_writes = 0
        n_persists = 0
        n_wb_delays = 0
        n_wpq_hits = 0
        # Float counters continue from their records' values, so every
        # addition happens in the reference order.
        c_stall = self._c_boundary_stall
        c_df_sync = self._c_df_sync
        c_df_stale = self._c_df_stale
        n_stall = c_stall.value
        n_df_sync = c_df_sync.value
        n_df_stale = c_df_stale.value

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
                    # The L1 probe touches private state only, so it
                    # doubles as the shared/private classification: a hit
                    # never leaves the core.  A hit moves its line to the
                    # set's recent end at once; a miss pops nothing, so
                    # no line is out of its set across the yield below.
                    l1_line = addr >> line_bits
                    ways = l1_setlist[l1_line % l1_nsets]
                    dirty = ways.pop(l1_line, None)
                    if dirty is not None:
                        # L1 hit: zero penalty, no evictions, next event.
                        ways[l1_line] = dirty
                        cycle += commit_cost
                        continue
                    # L1 miss: L2+/DRAM tags and NVM state are shared.
                    while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                        limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    l1_misses += 1
                    if len(ways) >= l1_ways_cap:
                        victim = next(iter(ways))  # least recently used
                        l1_ev = victim if ways.pop(victim) else None
                    else:
                        l1_ev = None
                    ways[l1_line] = False
                    # ---- inlined L2 probe (walk resumes at level 2) -----
                    if multi_level:
                        index2 = l1_line % l2_nsets
                        ways2 = l2_sets.get(index2)
                        if ways2 is None:
                            ways2 = l2_sets[index2] = {}
                        dirty = ways2.pop(l1_line, None)
                        if dirty is not None:
                            l2.hits += 1
                            ways2[l1_line] = dirty
                            latency = l2_hit_lat
                            to_nvm = False
                            llc_ev = None
                        else:
                            l2.misses += 1
                            if len(ways2) >= l2_ways_cap:
                                victim = next(iter(ways2))
                                llc2 = victim if ways2.pop(victim) and llc_from_l2 else None
                            else:
                                llc2 = None
                            ways2[l1_line] = False
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
                        n_llc_writes += 1
                elif code == "s" or code == "c":
                    # ---- inlined _store ('c' is a plain store) ----------
                    # Shared iff the L1 probe misses (L2+/DRAM tags) or the
                    # persist path engages (WPQ/NVM); a store merged into
                    # an already-buffered dirty line never leaves the core.
                    # The probe only reads the set: the line moves after
                    # the gate, so none is out of its set across a yield.
                    l1_line = addr >> line_bits
                    ways = l1_setlist[l1_line % l1_nsets]
                    hit = l1_line in ways
                    if not hit or (
                        persist_stores and not (coalesce and l1_line in region_lines)
                    ):
                        while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                            limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    if extra_store_cost:
                        cycle += extra_store_cost
                    if hit:
                        del ways[l1_line]
                        ways[l1_line] = True
                    else:
                        l1_misses += 1
                        if len(ways) >= l1_ways_cap:
                            victim = next(iter(ways))
                            l1_ev = victim if ways.pop(victim) else None
                        else:
                            l1_ev = None
                        ways[l1_line] = True
                        # ---- inlined L2 probe (store miss) --------------
                        if multi_level:
                            index2 = l1_line % l2_nsets
                            ways2 = l2_sets.get(index2)
                            if ways2 is None:
                                ways2 = l2_sets[index2] = {}
                            if ways2.pop(l1_line, None) is not None:
                                l2.hits += 1
                                ways2[l1_line] = True
                                llc_ev = None
                            else:
                                l2.misses += 1
                                if len(ways2) >= l2_ways_cap:
                                    victim = next(iter(ways2))
                                    llc2 = victim if ways2.pop(victim) and llc_from_l2 else None
                                else:
                                    llc2 = None
                                ways2[l1_line] = True
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
                            n_llc_writes += 1
                    if not persist_stores:
                        continue
                    # ---- inlined _persist -------------------------------
                    if coalesce:
                        if l1_line in region_lines:
                            continue  # merged into the buffered dirty line
                        region_lines.add(l1_line)
                    # pb.admit(cycle), advance unrolled on the local PB
                    # clock (a full PB is rare and delegates to the
                    # reference method, around a write-back).
                    while pb_entries and pb_entries[0] <= cycle:
                        t = pb_entries.popleft()
                        if t > pb_last:
                            pb_occ += (len(pb_entries) + 1) * (t - pb_last)
                            pb_last = t
                    if cycle > pb_last:
                        pb_occ += len(pb_entries) * (cycle - pb_last)
                        pb_last = cycle
                    if len(pb_entries) >= pb_capacity:
                        pb._last_t, pb.occ_integral = pb_last, pb_occ
                        cycle = pb_admit(cycle)
                        pb_last, pb_occ = pb._last_t, pb.occ_integral
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
                    # completion clamp; the PB's pushes are n_persists.
                    q.pushes += 1
                    if we and drain_done < we[-1]:
                        we.append(we[-1])
                    else:
                        we.append(drain_done)
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
                    n_persists += 1
                elif code == "b" or code == "f" or code == "x":
                    # ---- inlined boundary / fence / atomic --------------
                    # Private (RBT, region bookkeeping, the local clock),
                    # except an atomic's store and the checkpoint stores
                    # a boundary synthesizes: those are gated as shared
                    # and run the reference _store, sync-call-reload.
                    stores = code == "x" or (ckpt_per_region and code == "b")
                    if stores:
                        while cycle > limit_c or (cycle == limit_c and idx > limit_i):
                            limit_c, limit_i = yield cycle
                    cycle += commit_cost
                    if extra_region_cost and code == "b":
                        cycle += extra_region_cost
                    if stores:
                        self.cycle, self.path_free = cycle, path_free
                        self.region_last_persist = region_last_persist
                        pb._last_t, pb.occ_integral = pb_last, pb_occ
                        if code == "x":
                            self._store(addr)
                        else:
                            self._ckpt_accum += ckpt_per_region
                            while self._ckpt_accum >= 1.0:
                                self._ckpt_accum -= 1.0
                                self._ckpt_addr += 8
                                if self._ckpt_addr > _CKPT_SYNTH_BASE + 4096:
                                    self._ckpt_addr = _CKPT_SYNTH_BASE
                                self._store(self._ckpt_addr)
                        cycle, path_free = self.cycle, self.path_free
                        region_last_persist = self.region_last_persist
                        pb_last, pb_occ = pb._last_t, pb.occ_integral
                    if code != "b":
                        if persist_stores:
                            # Sync: every prior store persists first.
                            if region_last_persist >= prev_region_complete:
                                target = region_last_persist
                            else:
                                target = prev_region_complete
                            if target > cycle:
                                n_stall += target - cycle
                                n_df_sync += target - cycle
                                cycle = target
                        continue
                    if persist_stores:
                        if coalesce:
                            region_lines.clear()
                        if prev_region_complete <= region_last_persist:
                            prev_region_complete = region_last_persist
                        region_last_persist = 0.0
                        if mc_speculation:
                            # rbt.admit(cycle) / rbt.push(complete), the PB
                            # unrolling; the RBT's pushes are the boundaries.
                            while rbt_entries and rbt_entries[0] <= cycle:
                                t = rbt_entries.popleft()
                                if t > rbt_last:
                                    rbt_occ += (len(rbt_entries) + 1) * (t - rbt_last)
                                    rbt_last = t
                            if cycle > rbt_last:
                                rbt_occ += len(rbt_entries) * (cycle - rbt_last)
                                rbt_last = cycle
                            if len(rbt_entries) >= rbt_capacity:
                                rbt._last_t, rbt.occ_integral = rbt_last, rbt_occ
                                before = cycle
                                cycle = rbt_admit(cycle)
                                n_stall += cycle - before
                                rbt_last, rbt_occ = rbt._last_t, rbt.occ_integral
                            if rbt_entries and prev_region_complete < rbt_entries[-1]:
                                rbt_entries.append(rbt_entries[-1])
                            else:
                                rbt_entries.append(prev_region_complete)
                        elif stall_at_boundary and prev_region_complete > cycle:
                            n_stall += prev_region_complete - cycle
                            cycle = prev_region_complete
                        # Neither: a battery-backed redo buffer never stalls.
                    if boundary_log is not None:
                        boundary_log.append(
                            (n - length_hint(codes_iter), prev_region_complete)
                        )
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
            self.prev_region_complete = prev_region_complete
            pb._last_t, pb.occ_integral = pb_last, pb_occ
            rbt._last_t, rbt.occ_integral = rbt_last, rbt_occ
            c_stall.value = n_stall
            c_df_sync.value = n_df_sync
            c_df_stale.value = n_df_stale
            # Counter flushes are integer-valued additions: exact in
            # float (well below 2^53), so batching them preserves value
            # identity.  Event-class totals come from C-speed counts
            # over the executed codes -- the loop never increments them
            # (the rare-path _store updates its own counters directly
            # and is not re-counted).  Every inlined persist pushes one
            # PB entry, sends persist_bytes and writes NVM once; every
            # boundary pushes one RBT entry when the RBT is in use.
            # Every inline load or store probes L1 once: the probes
            # that did not miss hit.  (The rare-path _store tallies its
            # own probes on the L1 object.)
            boundaries = codes.count("b", start, end)
            loads = codes.count("l", start, end)
            stores = codes.count("s", start, end) + codes.count("c", start, end)
            self._c_insts.value += end - start
            self._c_loads.value += loads
            self._c_stores.value += stores
            l1.hits += loads + stores - l1_misses
            l1.misses += l1_misses
            self._c_boundaries.value += boundaries
            if persist_stores and mc_speculation:
                rbt.pushes += boundaries
            pb.pushes += n_persists
            self._c_nvm_reads.value += n_nvm_reads
            self._c_nvm_writes.value += n_llc_writes + n_persists
            self._c_path_bytes.value += n_persists * scheme.persist_bytes
            self._c_wb_delays.value += n_wb_delays
            self._c_wpq_hits.value += n_wpq_hits

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
    def _store(self, addr: int) -> None:
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
