"""Trace-driven, cycle-approximate timing simulator.

Stands in for the paper's gem5 model (Section IX): cores commit a
trace of instructions; caches, the L1D write buffer, the persist
buffer, the persist path, the region boundary table, the memory
controllers' write-pending queues, and the NVM devices are modelled as
queues of completion timestamps.  Absolute cycle counts are
approximate; the paper's comparisons are all *normalized slowdowns*,
which this model reproduces in shape.

Configuration, schemes and metrics load with the package.  The
simulator's own modules load on first use of a name they define
(PEP 562), so a process that only reads cached results -- a warm
figure run -- never compiles them.  The cut-and-resume drivers live in
:mod:`repro.arch.checkpoint`, which this package does not re-export:
only checkpointed runs load it.
"""

import importlib

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
from repro.arch.metrics import Counter, Gauge, MetricSet, Ratio, SimStats, TimeWeighted
from repro.arch.scheme import Scheme

#: Re-exported name -> the simulator module that defines it.
_LAZY = {
    "CompletionQueue": "repro.arch.queues",
    "CacheHierarchy": "repro.arch.caches",
    "DirectMappedCache": "repro.arch.caches",
    "SetAssocCache": "repro.arch.caches",
    "EventView": "repro.arch.trace",
    "PackedTrace": "repro.arch.trace",
    "unpack_events": "repro.arch.trace",
    "TimingSimulator": "repro.arch.machine",
    "simulate": "repro.arch.machine",
    "MulticoreSimulator": "repro.arch.multicore",
    "MulticoreStats": "repro.arch.multicore",
    "simulate_multicore": "repro.arch.multicore",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


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
