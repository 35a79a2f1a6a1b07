"""Trace-driven, cycle-approximate timing simulator.

Stands in for the paper's gem5 model (Section IX): cores commit a
trace of instructions; caches, the L1D write buffer, the persist
buffer, the persist path, the region boundary table, the memory
controllers' write-pending queues, and the NVM devices are modelled as
queues of completion timestamps.  Absolute cycle counts are
approximate; the paper's comparisons are all *normalized slowdowns*,
which this model reproduces in shape.

The cut-and-resume drivers live in :mod:`repro.arch.checkpoint`, which
this package does not import: only checkpointed runs load it.
"""

from repro.arch.config import (
    CacheConfig,
    DRAMCacheConfig,
    MachineConfig,
    NVMTech,
    CXL_DEVICES,
    NVM_TECHS,
    machine_with_cache_levels,
    skylake_machine,
)
from repro.arch.metrics import Counter, Gauge, MetricSet, Ratio, TimeWeighted
from repro.arch.scheme import Scheme
from repro.arch.queues import CompletionQueue
from repro.arch.caches import CacheHierarchy, DirectMappedCache, SetAssocCache
from repro.arch.trace import EventView, PackedTrace, unpack_events
from repro.arch.machine import SimStats, TimingSimulator, simulate
from repro.arch.multicore import MulticoreSimulator, MulticoreStats, simulate_multicore

__all__ = [
    "CXL_DEVICES",
    "CacheConfig",
    "CacheHierarchy",
    "CompletionQueue",
    "Counter",
    "DRAMCacheConfig",
    "DirectMappedCache",
    "EventView",
    "Gauge",
    "MachineConfig",
    "MetricSet",
    "Ratio",
    "TimeWeighted",
    "MulticoreSimulator",
    "MulticoreStats",
    "NVMTech",
    "NVM_TECHS",
    "PackedTrace",
    "Scheme",
    "simulate_multicore",
    "SetAssocCache",
    "SimStats",
    "TimingSimulator",
    "machine_with_cache_levels",
    "simulate",
    "skylake_machine",
    "unpack_events",
]
