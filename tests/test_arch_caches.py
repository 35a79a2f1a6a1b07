"""Cache models: LRU, dirty eviction, direct-mapped DRAM, priming."""

from repro.arch.caches import CacheHierarchy, DirectMappedCache, SetAssocCache
from repro.arch.config import CacheConfig, DRAMCacheConfig, skylake_machine
from repro.arch.machine import TimingSimulator
from repro.arch.trace import PackedTrace
from repro.schemes import cwsp


def tiny_cache(ways=2, sets=2):
    return SetAssocCache(
        CacheConfig("T", size_bytes=64 * ways * sets, ways=ways, hit_latency=4)
    )


class TestSetAssoc:
    def test_miss_then_hit(self):
        c = tiny_cache()
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(0, False)
        assert hit

    def test_lru_eviction(self):
        c = tiny_cache(ways=2, sets=1)
        c.access(0, False)
        c.access(1, False)
        c.access(0, False)  # 0 is now MRU
        _, evicted = c.access(2, False)  # evicts line 1 (LRU)
        assert evicted is not None and evicted[0] == 1

    def test_dirty_bit_on_eviction(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, True)  # write: dirty
        _, evicted = c.access(1, False)
        assert evicted == (0, True)

    def test_clean_eviction(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, False)
        _, evicted = c.access(1, False)
        assert evicted == (0, False)

    def test_write_marks_existing_line_dirty(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, False)
        c.access(0, True)
        _, evicted = c.access(1, False)
        assert evicted == (0, True)

    def test_miss_rate(self):
        # The counters CacheHierarchy.contribute reads into cache.*.miss_rate.
        c = tiny_cache()
        c.access(0, False)
        c.access(0, False)
        assert (c.hits, c.misses) == (1, 1)


def _lines(cache, index=0):
    """Set *index*'s lines, least recently used first."""
    return list(cache.sets.get(index, {}))


class TestRecencyOrder:
    """Each set keeps its lines least recently used first: a hit moves
    its line to the end, and the victim is the first line."""

    def test_first_eviction_after_priming_is_the_first_primed_line(self):
        h = CacheHierarchy((CacheConfig("L1", 8 * 64, 8, hit_latency=4),), None)
        # Smallest range first: lines 64-65, then 0-3.
        h.prime([(0, 4 * 64), (64 * 64, 2 * 64)])
        l1 = h.levels[0]
        assert _lines(l1) == [64, 65, 0, 1, 2, 3]
        for line in (6, 7):
            assert l1.access(line, False) == (False, None)
        assert l1.access(100, False) == (False, (64, False))
        assert l1.access(101, False) == (False, (65, False))

    def test_hit_moves_its_line_behind_all_others(self):
        c = tiny_cache(ways=3, sets=1)
        for line in (0, 1, 2):
            c.access(line, False)
        assert c.access(0, False) == (True, None)
        assert _lines(c) == [1, 2, 0]
        evicted = [c.access(line, False)[1][0] for line in (3, 4, 5)]
        assert evicted == [1, 2, 0]

    def test_write_hit_leaves_the_line_dirty(self):
        c = tiny_cache(ways=2, sets=1)
        c.access(0, False)
        c.access(0, True)
        c.access(0, False)  # a read hit keeps it dirty
        assert c.snapshot()["sets"] == [[0, [[0, True]]]]
        c.access(1, False)
        assert c.access(2, False)[1] == (0, True)

    def test_no_l1_line_is_out_of_its_set_at_a_yield(self):
        """The fused loop yields to the multicore scheduler before each
        shared event; at every yield, the private L1 holds exactly the
        lines the executed events left, in their recency order."""
        sim = TimingSimulator(skylake_machine(scaled=True), cwsp())
        l1 = sim.hier.levels[0]
        a, b, c = (k * l1.n_sets << l1.line_bits for k in range(3))  # one set
        # Load misses A and B, a private load hit on A, a store hit on
        # B (shared: it persists), a load miss on C.
        trace = PackedTrace("lllsl", [a, b, a, b, c])
        gen = sim._packed_gen(trace, 1)
        next(gen)
        seen = []
        limit = (0.0, 0)  # core 1 loses the tie: every shared event yields
        while True:
            try:
                clock = gen.send(limit)
            except StopIteration:
                break
            seen.append(_lines(l1))
            limit = (clock, 2)  # let this event run, stop at the next
        a, b, c = (x >> l1.line_bits for x in (a, b, c))
        assert seen == [[], [a], [b, a], [a, b]]
        assert _lines(l1) == [a, b, c]
        assert (l1.hits, l1.misses) == (2, 3)


class TestDirectMapped:
    def test_conflict_eviction(self):
        d = DirectMappedCache(DRAMCacheConfig(size_bytes=2 * 64, hit_latency=1))
        d.access(0, True)
        _, evicted = d.access(2, False)  # same index (2 lines)
        assert evicted == (0, True)

    def test_hit_after_fill(self):
        d = DirectMappedCache(DRAMCacheConfig(size_bytes=2 * 64, hit_latency=1))
        d.access(5, False)
        hit, _ = d.access(5, False)
        assert hit

    def test_write_hit_marks_dirty(self):
        d = DirectMappedCache(DRAMCacheConfig(size_bytes=2 * 64, hit_latency=1))
        d.access(5, False)
        assert d.dirty == set()
        hit, _ = d.access(5, True)
        assert hit and d.dirty == {1}
        _, evicted = d.access(7, False)
        assert evicted == (5, True)

    def test_clean_refill_clears_dirty_bit(self):
        d = DirectMappedCache(DRAMCacheConfig(size_bytes=2 * 64, hit_latency=1))
        d.access(0, True)
        _, evicted = d.access(2, False)  # clean refill of the dirty index
        assert evicted == (0, True)
        assert d.dirty == set()
        _, evicted = d.access(0, False)
        assert evicted == (2, False)  # the write-back was reported once

    def test_prime_over_dirty_index_leaves_it_clean(self):
        h = CacheHierarchy(
            (CacheConfig("L1", 2 * 64, 1, hit_latency=4),),
            DRAMCacheConfig(size_bytes=4 * 64, hit_latency=100),
        )
        h.dram.access(1, True)
        h.dram.access(6, True)
        h.prime([(5 * 64, 64)])  # line 5: index 1, tag 1
        assert h.dram.dirty == {2}
        assert h.dram.snapshot()["lines"] == [[1, 1, False], [2, 1, True]]
        _, evicted = h.dram.access(1, False)
        assert evicted == (5, False)


class TestHierarchy:
    def _hier(self):
        return CacheHierarchy(
            (
                CacheConfig("L1", 2 * 64, 1, hit_latency=4),
                CacheConfig("L2", 8 * 64, 2, hit_latency=14),
            ),
            DRAMCacheConfig(size_bytes=64 * 64, hit_latency=100),
        )

    def test_l1_hit_latency(self):
        h = self._hier()
        h.access(0, False)
        lat, to_nvm, _, _ = h.access(0, False)
        assert lat == 4 and not to_nvm

    def test_cold_miss_reaches_nvm(self):
        h = self._hier()
        lat, to_nvm, _, _ = h.access(0, False)
        assert to_nvm and lat == 14 + 100  # latencies are cumulative per level

    def test_l1_dirty_eviction_reported(self):
        h = self._hier()
        h.access(0 * 64, True)
        h.access(2 * 64, False)  # same L1 set (2 lines, direct in L1)
        _, _, l1_ev, _ = h.access(4 * 64, False)
        assert l1_ev is not None or h.levels[0].misses >= 2

    def test_prime_makes_ranges_resident(self):
        h = self._hier()
        h.prime([(0, 2 * 64)])  # fits L1
        lat, to_nvm, _, _ = h.access(0, False)
        assert lat == 4 and not to_nvm

    def test_prime_respects_capacity(self):
        h = self._hier()
        h.prime([(0, 2 * 64), (0x10000, 6 * 64)])  # second range only fits L2+
        lat, to_nvm, _, _ = h.access(0x10000, False)
        assert not to_nvm and lat == 14  # cumulative L2 latency

    def test_prime_dram_always(self):
        h = self._hier()
        h.prime([(0x20000, 32 * 64)])  # too big for L2, fits DRAM
        lat, to_nvm, _, _ = h.access(0x20000, False)
        assert not to_nvm and lat == 14 + 100

    def test_no_dram_hierarchy(self):
        h = CacheHierarchy(
            (CacheConfig("L1", 2 * 64, 1, hit_latency=4),), None
        )
        _, to_nvm, _, _ = h.access(0, False)
        assert to_nvm

