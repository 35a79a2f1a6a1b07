"""Functional persistence model, power-failure injection, and recovery.

The paper admits (Section VIII) that it never tests system-level
recovery; this package closes that gap.  It models the *functional*
behaviour of cWSP's persistence hardware during an interpreted run:

- the persist buffer (PB) and per-MC FIFO drain with configurable NUMA
  skew (younger stores on a fast MC may persist before older ones on a
  slow MC -- the Figure 2(c) hazard);
- the region boundary table (RBT) and MC speculation with append-only
  per-region undo logs (Section V-B);
- the NVM recovery pointer (the RS Pointer the hardware writes when a
  region becomes non-speculative);
- region-buffered observable output (the I/O redo-buffer discipline of
  Section VIII).

Power failure can be injected after any committed instruction; the
recovery protocol (Section VII) then reverts speculative NVM updates,
runs the oldest unpersisted region's recovery slice, and resumes.  The
checker asserts the resumed execution's final NVM state and observable
output equal the failure-free run's.
"""

from repro.recovery.model import (
    FailureImage,
    FunctionalPersistence,
    PersistenceConfig,
    PowerFailure,
    RegionRecord,
    word_checksum,
)
from repro.recovery.protocol import (
    DegradedRecovery,
    RecoveryError,
    RecoveryResult,
    assess_damage,
    recover_and_resume,
    recover_checked,
)
from repro.recovery.failure import run_with_failure
from repro.recovery.checker import ConsistencyReport, check_crash_consistency
from repro.recovery.multithread import (
    ThreadSpec,
    ThreadedExecution,
    ThreadedPersistence,
    check_threaded_crash_consistency,
)

__all__ = [
    "ConsistencyReport",
    "DegradedRecovery",
    "FailureImage",
    "FunctionalPersistence",
    "PersistenceConfig",
    "PowerFailure",
    "RecoveryError",
    "RecoveryResult",
    "RegionRecord",
    "ThreadSpec",
    "ThreadedExecution",
    "ThreadedPersistence",
    "assess_damage",
    "check_crash_consistency",
    "check_threaded_crash_consistency",
    "recover_and_resume",
    "recover_checked",
    "run_with_failure",
    "word_checksum",
]
