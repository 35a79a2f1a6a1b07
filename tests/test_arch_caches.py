"""Cache models: LRU, dirty eviction, direct-mapped DRAM, priming."""

import json

import pytest

from repro.arch.caches import CacheHierarchy, DirectMappedCache, SetAssocCache
from repro.arch.config import CacheConfig, DRAMCacheConfig, skylake_machine
from repro.arch.machine import TimingSimulator
from repro.schemes import cwsp
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import prime_ranges


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
        c = tiny_cache()
        c.access(0, False)
        c.access(0, False)
        assert c.miss_rate == 0.5

    def test_invalidate(self):
        c = tiny_cache()
        c.access(0, False)
        c.invalidate(0)
        hit, _ = c.access(0, False)
        assert not hit


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

    def test_restore_round_trip_in_place(self):
        d = DirectMappedCache(DRAMCacheConfig(size_bytes=4 * 64, hit_latency=1))
        for line, write in ((3, True), (0, False), (9, True), (4, True), (1, False)):
            d.access(line, write)
        state = d.snapshot()
        text = json.dumps(state)
        tags, dirty = d.tags, d.dirty
        d.access(2, True)
        d.access(7, False)
        d.restore_state(json.loads(text))
        assert json.dumps(d.snapshot()) == text
        assert d.tags is tags and d.dirty is dirty


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


class TestCopyTagsFrom:
    """A copy of a primed template is the state a direct prime leaves."""

    RANGES = prime_ranges(PROFILES["lbm"])

    def _template(self, machine):
        template = CacheHierarchy(machine.caches, machine.dram_cache)
        template.prime(self.RANGES)
        return template

    def test_packed_fast_simulator_matches_direct_prime(self):
        machine = skylake_machine(scaled=True)
        direct = TimingSimulator(machine, cwsp())
        direct.hier.prime(self.RANGES)
        copied = TimingSimulator(machine, cwsp())
        l1_sets = copied.hier.levels[0].sets
        pre_created = {i: ways for i, ways in l1_sets.items()}
        copied.hier.copy_tags_from(self._template(machine))
        assert json.dumps(copied.hier.snapshot()) == json.dumps(direct.hier.snapshot())
        # The fused loop holds the pre-created L1 set dicts: same objects.
        assert copied.hier.levels[0].sets is l1_sets
        assert all(l1_sets[i] is ways for i, ways in pre_created.items())
        assert list(l1_sets) == list(direct.hier.levels[0].sets)

    def test_bare_hierarchy_matches_direct_prime(self):
        machine = skylake_machine()  # three levels, full-size
        direct = CacheHierarchy(machine.caches, machine.dram_cache)
        direct.prime(self.RANGES)
        copied = CacheHierarchy(machine.caches, machine.dram_cache)
        template = self._template(machine)
        copied.copy_tags_from(template)
        assert json.dumps(copied.snapshot()) == json.dumps(direct.snapshot())
        # Fresh entries: running the copy leaves the template primed.
        copied.access(self.RANGES[0][0], True)
        assert json.dumps(template.snapshot()) == json.dumps(direct.snapshot())

    def test_touched_target_raises(self):
        machine = skylake_machine(scaled=True)
        template = self._template(machine)
        for touch in (
            lambda h: h.access(0, False),
            lambda h: h.prime(self.RANGES),
            lambda h: h.dram.access(0, False),
        ):
            target = CacheHierarchy(machine.caches, machine.dram_cache)
            touch(target)
            with pytest.raises(ValueError, match="not untouched"):
                target.copy_tags_from(template)
        template.access(0, False)
        with pytest.raises(ValueError, match="accessed since priming"):
            CacheHierarchy(machine.caches, machine.dram_cache).copy_tags_from(template)

    def test_geometry_mismatch_raises(self):
        machine = skylake_machine(scaled=True)
        template = self._template(machine)
        with pytest.raises(ValueError, match="geometry"):
            CacheHierarchy(machine.caches, None).copy_tags_from(template)
