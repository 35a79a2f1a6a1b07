"""Timing simulator behaviour: stalls, delays, coalescing, stats."""

from dataclasses import replace

import pytest

from repro.arch import simulate, skylake_machine
from repro.schemes import baseline, capri, cwsp, psp_ideal, replaycache


def store_burst_trace(n=2000, addr0=0x10000):
    """n back-to-back stores to consecutive words: persist pressure."""
    return [("s", addr0 + 8 * i) for i in range(n)]


def mixed_trace(n=3000):
    events = []
    for i in range(n):
        if i % 10 == 0:
            events.append(("s", 0x20000 + (i % 64) * 8))
        elif i % 10 == 5:
            events.append(("l", 0x20000 + (i % 64) * 8))
        else:
            events.append(("a",))
        if i % 40 == 39:
            events.append(("b",))
    return events


@pytest.fixture
def machine():
    return skylake_machine(scaled=True)


class TestBasics:
    def test_cycles_positive_and_insts_counted(self, machine):
        stats = simulate(mixed_trace(), machine, baseline())
        assert stats.cycles > 0
        assert stats.insts == len(mixed_trace())

    def test_persistence_never_speeds_up(self, machine):
        tr = mixed_trace()
        b = simulate(tr, machine, baseline())
        c = simulate(tr, machine, cwsp())
        assert c.cycles >= b.cycles * 0.999

    def test_unknown_event_rejected(self, machine):
        with pytest.raises(ValueError):
            simulate([("z", 1)], machine, baseline())

    def test_boundary_counted(self, machine):
        stats = simulate(mixed_trace(), machine, cwsp())
        assert stats.boundaries > 0
        assert stats.insts_per_region == pytest.approx(
            stats.insts / stats.boundaries
        )

    def test_ipc_bounded_by_commit_width(self, machine):
        stats = simulate([("a",)] * 1000, machine, baseline())
        assert stats.ipc <= machine.commit_width + 1e-9


class TestPersistPath:
    def test_store_burst_saturates_narrow_path(self, machine):
        tr = store_burst_trace()
        wide = simulate(tr, replace(machine, persist_bw_gbps=32.0), cwsp())
        narrow = simulate(tr, replace(machine, persist_bw_gbps=0.5), cwsp())
        assert narrow.cycles > wide.cycles * 1.5
        assert narrow.pb_full_stalls > 0

    def test_persist_bytes_accounted(self, machine):
        tr = store_burst_trace(100)
        stats = simulate(tr, machine, cwsp())
        assert stats.persist_path_bytes == 100 * 8

    def test_capri_sends_cachelines(self, machine):
        tr = store_burst_trace(100)
        stats = simulate(tr, machine, capri())
        # coalescing: one 64B line per 8 sequential stores
        assert stats.persist_path_bytes == pytest.approx(100 * 8, rel=0.2)
        assert stats.nvm_writes < 100

    def test_coalescing_window_resets_at_boundary(self, machine):
        # same line stored in two regions: two line transfers
        tr = [("s", 0x1000), ("b",), ("s", 0x1000)]
        stats = simulate(tr, machine, capri())
        assert stats.nvm_writes == 2

    def test_baseline_sends_nothing(self, machine):
        stats = simulate(store_burst_trace(100), machine, baseline())
        assert stats.persist_path_bytes == 0


class TestRBT:
    def test_small_rbt_stalls_short_regions(self, machine):
        events = []
        for i in range(4000):
            events.append(("s", 0x30000 + (i % 512) * 8))
            if i % 4 == 3:
                events.append(("b",))
        slow_path = replace(machine, persist_bw_gbps=1.0)
        small = simulate(events, replace(slow_path, rbt_entries=2), cwsp())
        big = simulate(events, replace(slow_path, rbt_entries=64), cwsp())
        assert small.rbt_full_stalls > big.rbt_full_stalls
        assert small.cycles >= big.cycles

    def test_stall_at_boundary_scheme_waits(self, machine):
        events = []
        for i in range(2000):
            events.append(("s", 0x40000 + i * 8))
            if i % 8 == 7:
                events.append(("b",))
        spec = simulate(events, machine, cwsp())
        stall = simulate(events, machine, cwsp(mc_speculation=False))
        assert stall.boundary_stall_cycles > spec.boundary_stall_cycles
        assert stall.cycles > spec.cycles

    def test_sync_waits_for_persistence(self, machine):
        tr = [("s", 0x50000 + i * 8) for i in range(50)] + [("f",)]
        stats = simulate(tr, machine, cwsp())
        assert stats.boundary_stall_cycles > 0


class TestStaleReadMachinery:
    def test_wpq_hit_load_commits_at_persist_time(self, machine):
        # Section V-C: a load hitting an in-flight WPQ word waits until
        # that entry persists -- exactly, with no mlp_factor discount
        # (an ordering wait is not an overlappable memory latency).
        from tests.sim_oracle import OracleSimulator

        sim = OracleSimulator(machine, cwsp())
        addr = 0x7000_0040  # cold caches: the load reads from NVM
        mc = machine.mc_of(addr)
        done = 1.0e6  # far beyond the load's own latency
        sim.wpq_word_done[mc][addr >> 3] = done
        sim._load(addr)
        assert sim.cycle == done
        assert sim.stats.wpq_load_hits == 1

    def test_wpq_hit_load_commits_at_persist_time_packed(self, machine):
        from repro.arch.machine import TimingSimulator
        from repro.arch.trace import PackedTrace

        sim = TimingSimulator(machine, cwsp())
        addr = 0x7000_0040
        mc = machine.mc_of(addr)
        done = 1.0e6
        sim.wpq_word_done[mc][addr >> 3] = done
        sim.run_until(PackedTrace("l", [addr]), float("inf"))
        assert sim.cycle == done
        assert sim.stats.wpq_load_hits == 1

    def test_wpq_load_delay_counts_hits(self, machine):
        # Store a word, evict its line from every cache level with
        # conflicting loads, then load it back while the persist is
        # still pending: the load must consult (and hit) the WPQ.
        stride = 2 << 20  # DRAM-cache size: same index at every level
        tr = []
        for i in range(100):
            a = 0x7000_0000 + i * 64
            tr.append(("s", a))
            for k in range(1, 18):
                tr.append(("l", a + k * stride))
            tr.append(("l", a))
        # Glacial NVM write bandwidth keeps WPQ entries pending long
        # enough for the reload to find them.
        slow = replace(machine, nvm=replace(machine.nvm, write_bw_gbps=0.002))
        stats = simulate(tr, slow, cwsp())
        assert stats.wpq_load_hits > 0
        without = simulate(tr, slow, cwsp(wpq_load_delay=False))
        assert without.wpq_load_hits == 0
        assert stats.cycles >= without.cycles

    def test_wb_delay_flag_controls_delays(self, machine):
        # Every store is followed by 9 stores to other lines of its L1
        # set, so the 8-way set evicts its line dirty while the line's
        # persist is still in flight.
        l1 = machine.caches[0]
        tr = [("s", 0x100000 + i * (l1.size_bytes // l1.ways)) for i in range(400)]
        with_delay = simulate(tr, machine, cwsp())
        without = simulate(tr, machine, cwsp(wb_delay=False))
        assert with_delay.wb_delays > 0
        assert without.wb_delays == 0

    def test_wb_occupancy_reported(self, machine):
        stats = simulate(mixed_trace(), machine, cwsp())
        assert stats.wb_mean_occupancy >= 0.0


class TestPSP:
    def test_psp_disables_dram_cache(self, machine):
        # an address resident only in the DRAM cache
        tr = [("l", 0x900000 + (i % 4096) * 64) for i in range(4000)]
        prime = [(0x900000, 4096 * 64)]
        base = simulate(tr, machine, baseline(), prime=prime)
        psp = simulate(tr, machine, psp_ideal(), prime=prime)
        assert psp.cycles > base.cycles
        assert psp.nvm_reads > base.nvm_reads


class TestSoftwareOverhead:
    def test_replaycache_adds_instruction_cost(self, machine):
        tr = mixed_trace(4000)  # boundaries present: persist waits bite
        rc = simulate(tr, machine, replaycache())
        cw = simulate(tr, machine, cwsp())
        base = simulate(tr, machine, baseline())
        assert rc.cycles > cw.cycles > base.cycles

    def test_ckpt_stores_per_region_synthesized(self, machine):
        tr = [("b",), ("a",)] * 100
        scheme = replace(cwsp(), ckpt_stores_per_region=2.0)
        stats = simulate(tr, machine, scheme)
        assert stats.stores == 200  # 2 synthetic ckpt stores per boundary


class TestDelayFreeAccounting:
    """Ben-David-style delay-free yardstick: cycles a core spends
    blocked on persistence where a delay-free design would not block
    (stale-read ordering waits + fence/boundary persist stalls)."""

    def test_baseline_is_zero_control(self, machine):
        stats = simulate(mixed_trace(4000) + [("f",)], machine, baseline())
        assert stats.delay_free_stall_cycles == 0.0
        assert stats.delay_free_stall_frac == 0.0

    def test_sync_stall_is_slice_of_boundary_stall(self, machine):
        tr = [("s", 0x50000 + i * 8) for i in range(50)] + [("f",)]
        stats = simulate(tr, machine, cwsp())
        assert stats.delayfree_sync_stall_cycles > 0
        assert stats.delayfree_sync_stall_cycles <= stats.boundary_stall_cycles

    def test_aggregate_identity_and_frac(self, machine):
        stats = simulate(mixed_trace(4000) + [("f",)], machine, cwsp())
        assert stats.delay_free_stall_cycles == pytest.approx(
            stats.delayfree_stale_wait_cycles + stats.boundary_stall_cycles
        )
        assert 0.0 <= stats.delay_free_stall_frac < 1.0

    def test_stale_read_wait_counted_reference_path(self, machine):
        from tests.sim_oracle import OracleSimulator

        sim = OracleSimulator(machine, cwsp())
        addr = 0x7000_0040
        done = 1.0e6
        sim.wpq_word_done[machine.mc_of(addr)][addr >> 3] = done
        before = sim.cycle
        sim._load(addr)
        # The wait starts where the load's own latency ends, so it is
        # positive but bounded by the full span to the persist time.
        assert 0 < sim.stats.delayfree_stale_wait_cycles <= done - before
        assert sim.cycle == done

    def test_stale_read_wait_counted_packed_path(self, machine):
        from repro.arch.machine import TimingSimulator
        from repro.arch.trace import PackedTrace

        sim = TimingSimulator(machine, cwsp())
        addr = 0x7000_0040
        done = 1.0e6
        sim.wpq_word_done[machine.mc_of(addr)][addr >> 3] = done
        before = sim.cycle
        sim.run_until(PackedTrace("l", [addr]), float("inf"))
        assert 0 < sim.stats.delayfree_stale_wait_cycles <= done - before
        assert sim.cycle == done

    def test_counters_merge_additively(self, machine):
        # Multicore aggregation sums delay-free counters per core.
        a = simulate(mixed_trace(3000) + [("f",)], machine, cwsp())
        b = simulate(mixed_trace(3000) + [("f",)], machine, cwsp())
        total = a.delayfree_sync_stall_cycles + b.delayfree_sync_stall_cycles
        a.metrics.merge(b.metrics)
        assert a.delayfree_sync_stall_cycles == pytest.approx(total)
