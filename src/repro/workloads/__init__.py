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
so importing the package does not load the IR stack.
"""

from repro.workloads.profiles import (
    ALL_APPS,
    AppProfile,
    MEMORY_INTENSIVE,
    PROFILES,
    SUITES,
    apps_in_suite,
)
from repro.workloads.synthetic import SyntheticStream, generate_trace

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
