"""Adversarial fault-injection campaign engine.

The paper's whole-system-persistence guarantee must hold under
*arbitrary* failure timing.  This package attacks the functional
persistence model (:mod:`repro.recovery`) with four fault classes:

1. **nested failures** -- power cuts injected *during* recovery
   (k-crash sequences); recovery must be idempotent and converge;
2. **torn persists** -- an 8-byte persist drains only its low half
   before the cut (a fault hook inside the model's MC apply path);
3. **storage corruption** -- bit flips in undo-log entries and
   checkpoint slots; per-entry checksums let recovery *detect* damage
   and degrade gracefully to a structured
   :class:`~repro.recovery.protocol.DegradedRecovery` restart instead
   of silently resuming from poisoned state;
4. **boundary-state faults** -- cuts aimed at PB/RBT occupancy
   extremes found by probing the model's internal state.

``python -m repro.faults`` runs campaigns (exhaustive sweeps and
seeded-random mixes) over the compiled IR kernels on a worker pool,
shrinks any divergent schedule to a minimal reproducer, and emits JSON
artifacts consumed by :mod:`repro.harness.report`.  ``--multicore``
runs the same campaign over the concurrent kernels: one driver
(:func:`run_campaign`), one trial entry point (:func:`run_trial`) and
one report renderer serve both suites.  What stays multicore-specific
lives in :mod:`repro.faults.multicore`: profiling a threaded run, the
``mt-*`` strategies, the threaded epoch loop (:func:`run_mt_schedule`)
and the canonical reference comparison.

Separately, :mod:`repro.faults.power` models the *timing* consequence
of intermittent power over the architectural simulator: duty-cycle
sweeps measuring forward progress and re-execution overhead per
persistence scheme (``python -m repro.faults --power-trace``).
"""

from repro.faults.campaign import (
    STRATEGIES,
    CampaignSpec,
    run_campaign,
    run_trial,
    smoke_spec,
    write_artifact,
)
from repro.faults.injectors import (
    EpochOutcome,
    ProbeHook,
    ScheduleOutcome,
    TornPersistInjector,
    apply_flip,
    resume_epoch,
    run_schedule,
)
from repro.faults.multicore import (
    MT_SCHEMES,
    MT_STRATEGIES,
    MTCampaignSpec,
    MTKernelProfile,
    mt_smoke_spec,
    profile_conc_kernel,
    run_mt_schedule,
)
from repro.faults.power import (
    IntermittentResult,
    PowerCampaignSpec,
    PowerTrace,
    power_smoke_spec,
    run_intermittent,
    run_power_campaign,
)
from repro.faults.schedule import FaultSchedule, FlipSpec, TearSpec, TrialRecord
from repro.faults.shrink import shrink_schedule
from repro.faults.strategies import KernelProfile, profile_kernel

__all__ = [
    "CampaignSpec",
    "EpochOutcome",
    "FaultSchedule",
    "FlipSpec",
    "IntermittentResult",
    "KernelProfile",
    "PowerCampaignSpec",
    "PowerTrace",
    "MTCampaignSpec",
    "MTKernelProfile",
    "MT_SCHEMES",
    "MT_STRATEGIES",
    "ProbeHook",
    "STRATEGIES",
    "ScheduleOutcome",
    "TearSpec",
    "TornPersistInjector",
    "TrialRecord",
    "apply_flip",
    "mt_smoke_spec",
    "power_smoke_spec",
    "profile_conc_kernel",
    "profile_kernel",
    "resume_epoch",
    "run_intermittent",
    "run_power_campaign",
    "run_campaign",
    "run_mt_schedule",
    "run_schedule",
    "run_trial",
    "shrink_schedule",
    "smoke_spec",
    "write_artifact",
]
