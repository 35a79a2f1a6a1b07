"""Machine configuration: caches, NVM technologies, CXL devices.

Numbers come from the paper's Section IX and Table I:

- 8-core Skylake at 2 GHz; 64KB 8-way L1D (4 cycles); 16MB 16-way
  shared L2 (44 cycles); 4GB direct-mapped DDR4-2400 DRAM cache; 32GB
  NVM with 175ns/90ns read/write; 2 MCs; 24-entry battery-backed WPQ;
  RBT/PB of 16/50 entries; persist path 20ns round trip, 4GB/s.
- Figure 1 / Figure 20 cache-depth variants (2-5 levels).
- Table I CXL devices (CXL-A..D) and Section IX-M NVM technologies
  (PMEM / STT-MRAM / ReRAM).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """One SRAM cache level."""

    name: str
    size_bytes: int
    ways: int
    hit_latency: int  # cycles, cumulative access time at this level
    line_bytes: int = 64


@dataclass(frozen=True)
class DRAMCacheConfig:
    """Direct-mapped DRAM cache (Intel PMEM memory-mode style LLC)."""

    size_bytes: int = 4 << 30
    hit_latency: int = 140  # ~70ns DRAM access at 2GHz
    line_bytes: int = 64


@dataclass(frozen=True)
class NVMTech:
    """An NVM device model: latencies plus aggregate write bandwidth."""

    name: str
    read_ns: float
    write_ns: float
    write_bw_gbps: float = 10.0
    #: Extra interconnect latency (e.g. 70ns for CXL, [74] in the paper).
    link_ns: float = 0.0

    @property
    def total_read_ns(self) -> float:
        return self.read_ns + self.link_ns

    @property
    def total_write_ns(self) -> float:
        return self.write_ns + self.link_ns


#: Section IX-M NVM technologies (PMEM per [126]/[127]).
NVM_TECHS: Dict[str, NVMTech] = {
    "PMEM": NVMTech("PMEM", read_ns=175.0, write_ns=90.0, write_bw_gbps=9.2),
    "STTRAM": NVMTech("STTRAM", read_ns=90.0, write_ns=60.0, write_bw_gbps=12.8),
    "ReRAM": NVMTech("ReRAM", read_ns=50.0, write_ns=40.0, write_bw_gbps=16.0),
}

#: Table I CXL memory devices.
CXL_DEVICES: Dict[str, NVMTech] = {
    "CXL-A": NVMTech("CXL-A", read_ns=158.0, write_ns=120.0, write_bw_gbps=38.4),
    "CXL-B": NVMTech("CXL-B", read_ns=223.0, write_ns=139.0, write_bw_gbps=19.2),
    "CXL-C": NVMTech("CXL-C", read_ns=348.0, write_ns=241.0, write_bw_gbps=25.6),
    "CXL-D": NVMTech("CXL-D", read_ns=245.0, write_ns=160.0, write_bw_gbps=2.3),
}

#: CXL DRAM counterpart used as the Figure 1 reference point.
CXL_DRAM = NVMTech("CXL-DRAM", read_ns=85.0, write_ns=85.0, write_bw_gbps=38.4)


@dataclass(frozen=True)
class MachineConfig:
    """Everything the timing simulator needs to know about the machine."""

    freq_ghz: float = 2.0
    commit_width: int = 2
    caches: Tuple[CacheConfig, ...] = (
        CacheConfig("L1D", 64 << 10, 8, hit_latency=4),
        CacheConfig("L2", 16 << 20, 16, hit_latency=44),
    )
    dram_cache: Optional[DRAMCacheConfig] = DRAMCacheConfig()
    nvm: NVMTech = NVM_TECHS["PMEM"]
    mc_count: int = 2
    #: Per-MC extra (NUMA) latency in ns.
    mc_extra_ns: Tuple[float, ...] = (0.0, 12.0)
    #: Address-interleave granularity across MCs, bytes.
    interleave: int = 256
    wpq_entries: int = 24
    wb_entries: int = 32
    pb_entries: int = 50
    rbt_entries: int = 16
    persist_lat_ns: float = 20.0
    persist_bw_gbps: float = 4.0
    #: Fraction of a miss's latency exposed to the commit stage (models
    #: out-of-order overlap / MLP; gem5's O3CPU hides most of it).
    mlp_factor: float = 0.2

    def ns(self, nanoseconds: float) -> float:
        """Convert nanoseconds to cycles."""
        return nanoseconds * self.freq_ghz

    def persist_lat_cycles(self) -> float:
        return self.ns(self.persist_lat_ns)

    def path_cycles_per_byte(self) -> float:
        """Persist-path occupancy per byte sent, in cycles."""
        return self.freq_ghz / self.persist_bw_gbps

    def nvm_write_cycles_per_byte(self) -> float:
        """Per-MC NVM write occupancy per byte, in cycles."""
        per_mc_bw = self.nvm.write_bw_gbps / self.mc_count
        return self.freq_ghz / per_mc_bw

    def mc_of(self, addr: int) -> int:
        return (addr // self.interleave) % self.mc_count


def skylake_machine(scaled: bool = False, **overrides) -> MachineConfig:
    """The paper's default evaluation machine (Section IX).

    ``scaled=True`` shrinks cache capacities so that the ~10^5-
    instruction sampled traces of the synthetic workloads exercise
    every level the way the paper's billion-instruction gem5 windows
    exercise the full-size hierarchy (latencies are unchanged).  The
    workload profiles' working-set classes are sized against the
    scaled hierarchy; see repro.workloads.profiles.
    """
    cfg = MachineConfig()
    if scaled:
        cfg = replace(
            cfg,
            caches=(
                CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
                CacheConfig("L2", 128 << 10, 16, hit_latency=44),
            ),
            dram_cache=DRAMCacheConfig(size_bytes=2 << 20, hit_latency=140),
        )
    return replace(cfg, **overrides) if overrides else cfg


_LEVEL_CONFIGS = {
    2: (
        CacheConfig("L1D", 64 << 10, 8, hit_latency=4),
        CacheConfig("L2", 1 << 20, 8, hit_latency=14),
    ),
    3: (
        CacheConfig("L1D", 64 << 10, 8, hit_latency=4),
        CacheConfig("L2", 1 << 20, 8, hit_latency=14),
        CacheConfig("L3", 16 << 20, 16, hit_latency=44),
    ),
    4: (
        CacheConfig("L1D", 64 << 10, 8, hit_latency=4),
        CacheConfig("L2", 1 << 20, 8, hit_latency=14),
        CacheConfig("L3", 16 << 20, 16, hit_latency=44),
        CacheConfig("L4", 128 << 20, 16, hit_latency=82),
    ),
}


_SCALED_LEVEL_CONFIGS = {
    2: (
        CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
        CacheConfig("L2", 64 << 10, 8, hit_latency=14),
    ),
    3: (
        CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
        CacheConfig("L2", 64 << 10, 8, hit_latency=14),
        CacheConfig("L3", 256 << 10, 16, hit_latency=44),
    ),
    4: (
        CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
        CacheConfig("L2", 64 << 10, 8, hit_latency=14),
        CacheConfig("L3", 256 << 10, 16, hit_latency=44),
        CacheConfig("L4", 1 << 20, 16, hit_latency=82),
    ),
}


def machine_with_cache_levels(
    levels: int,
    nvm: Optional[NVMTech] = None,
    scaled: bool = False,
    **overrides,
) -> MachineConfig:
    """Figure 1's hierarchies: 2/3/4 SRAM levels, 5 = 4 SRAM + DRAM cache."""
    tables = _SCALED_LEVEL_CONFIGS if scaled else _LEVEL_CONFIGS
    if levels == 5:
        caches = tables[4]
        dram = (
            DRAMCacheConfig(size_bytes=2 << 20, hit_latency=140)
            if scaled
            else DRAMCacheConfig()
        )
    elif levels in tables:
        caches = tables[levels]
        dram = None
    else:
        raise ValueError(f"unsupported cache depth {levels} (2-5)")
    cfg = MachineConfig(caches=caches, dram_cache=dram)
    if nvm is not None:
        cfg = replace(cfg, nvm=nvm)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
