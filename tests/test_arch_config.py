"""Machine configuration presets and unit conversions."""

import pytest

from repro.arch.config import (
    CXL_DEVICES,
    CXL_DRAM,
    NVM_TECHS,
    machine_with_cache_levels,
    skylake_machine,
)


class TestDefaults:
    def test_paper_default_machine(self):
        m = skylake_machine()
        assert m.caches[0].size_bytes == 64 << 10  # 64KB L1D
        assert m.caches[1].hit_latency == 44       # 44-cycle shared L2
        assert m.dram_cache.size_bytes == 4 << 30  # 4GB DRAM cache
        assert m.nvm.read_ns == 175.0 and m.nvm.write_ns == 90.0
        assert m.mc_count == 2
        assert m.wpq_entries == 24
        assert m.pb_entries == 50 and m.rbt_entries == 16
        assert m.persist_lat_ns == 20.0 and m.persist_bw_gbps == 4.0

    def test_scaled_keeps_latencies(self):
        full = skylake_machine()
        scaled = skylake_machine(scaled=True)
        assert scaled.caches[0].hit_latency == full.caches[0].hit_latency
        assert scaled.caches[1].hit_latency == full.caches[1].hit_latency
        assert scaled.caches[1].size_bytes < full.caches[1].size_bytes

    def test_overrides(self):
        m = skylake_machine(rbt_entries=32, persist_bw_gbps=10.0)
        assert m.rbt_entries == 32 and m.persist_bw_gbps == 10.0

    def test_hashable_for_caching(self):
        assert skylake_machine() == skylake_machine()
        assert {skylake_machine(): 1}[skylake_machine()] == 1


class TestConversions:
    def test_ns_to_cycles(self):
        m = skylake_machine()
        assert m.ns(10.0) == 20.0  # 2 GHz

    def test_path_cycles_per_byte(self):
        m = skylake_machine()
        # 4GB/s at 2GHz = 2 bytes/cycle
        assert m.path_cycles_per_byte() == pytest.approx(0.5)

    def test_nvm_write_cycles_split_across_mcs(self):
        m = skylake_machine()
        per_mc = m.nvm.write_bw_gbps / m.mc_count
        assert m.nvm_write_cycles_per_byte() == pytest.approx(m.freq_ghz / per_mc)

    def test_mc_interleave(self):
        m = skylake_machine()
        assert m.mc_of(0) == 0
        assert m.mc_of(m.interleave) == 1
        assert m.mc_of(2 * m.interleave) == 0


class TestCacheDepthPresets:
    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_sram_only_levels(self, levels):
        m = machine_with_cache_levels(levels)
        assert len(m.caches) == levels
        assert m.dram_cache is None

    def test_five_levels_adds_dram(self):
        m = machine_with_cache_levels(5)
        assert len(m.caches) == 4
        assert m.dram_cache is not None

    def test_sizes_monotone(self):
        for scaled in (False, True):
            m = machine_with_cache_levels(4, scaled=scaled)
            sizes = [c.size_bytes for c in m.caches]
            assert sizes == sorted(sizes)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            machine_with_cache_levels(7)

    def test_nvm_override(self):
        m = machine_with_cache_levels(3, nvm=CXL_DRAM)
        assert m.nvm.name == "CXL-DRAM"


class TestNVMCatalogs:
    def test_three_nvm_technologies(self):
        assert set(NVM_TECHS) == {"PMEM", "STTRAM", "ReRAM"}
        # ordering: PMEM slowest reads, ReRAM fastest
        assert NVM_TECHS["PMEM"].read_ns > NVM_TECHS["STTRAM"].read_ns
        assert NVM_TECHS["STTRAM"].read_ns > NVM_TECHS["ReRAM"].read_ns

    def test_table_one_devices(self):
        assert set(CXL_DEVICES) == {"CXL-A", "CXL-B", "CXL-C", "CXL-D"}
        a = CXL_DEVICES["CXL-A"]
        assert (a.read_ns, a.write_ns, a.write_bw_gbps) == (158.0, 120.0, 38.4)
        d = CXL_DEVICES["CXL-D"]
        assert d.write_bw_gbps == 2.3  # Optane-class write bandwidth

    def test_link_latency_adds(self):
        from dataclasses import replace

        dev = replace(CXL_DEVICES["CXL-A"], link_ns=70.0)
        assert dev.total_read_ns == 228.0
        assert dev.total_write_ns == 190.0
