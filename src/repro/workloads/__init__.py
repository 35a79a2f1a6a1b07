"""Workloads: the 37 paper applications and IR kernel programs.

The paper evaluates SPEC CPU2006/2017, DOE Mini-apps, SPLASH3,
WHISPER, and STAMP.  Those binaries and inputs are not available
here, so each application is represented by a calibrated synthetic
trace profile (:mod:`repro.workloads.profiles`) capturing the
characteristics its figure behaviour depends on: load/store mix,
working-set locality classes, region length, checkpoint density,
sequential-write burstiness, and synchronization rate.

Separately, :mod:`repro.workloads.programs` provides real IR kernels
(linked list, b-tree, hash map, kmeans, ...) that are compiled by the
cWSP passes and interpreted -- used for correctness, recovery testing,
and the examples; :mod:`repro.workloads.adapter` turns their IR
interpreter traces into simulator events.  It is not re-exported here,
so importing the package does not load the IR stack.  The trace
generator (:mod:`repro.workloads.synthetic`) loads on first use of a
name it defines (PEP 562), so a process that only reads cached results
never compiles it.
"""

import importlib

from repro.workloads.profiles import (
    ALL_APPS,
    AppProfile,
    MEMORY_INTENSIVE,
    PROFILES,
    SUITES,
    apps_in_suite,
)

#: Re-exported name -> the module that defines it.
_LAZY = {
    "SyntheticStream": "repro.workloads.synthetic",
    "generate_trace": "repro.workloads.synthetic",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


__all__ = [
    "ALL_APPS",
    "AppProfile",
    "MEMORY_INTENSIVE",
    "PROFILES",
    "SUITES",
    "SyntheticStream",
    "apps_in_suite",
    "generate_trace",
]
