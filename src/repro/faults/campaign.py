"""Campaign orchestration: build schedules, fan trials out over a
worker pool, verify every outcome against the failure-free reference,
shrink divergences, and emit a JSON artifact.

One driver, :func:`run_campaign`, serves both suites: a
:class:`CampaignSpec` (single-core kernels) or an
:class:`~repro.faults.multicore.MTCampaignSpec` (concurrent kernels)
expands into ``(kernel, cell path, schedule)`` tasks, and
:func:`run_trial` picks the single-core or multicore trial by the
kernel's suite.  The cell path is ``(strategy,)`` for single-core
cells and ``(scheme, strategy)`` for multicore ones.

The artifact is self-contained and reproducible: it records the
campaign seed, every strategy's parameters, and for each divergence the
full fault schedule plus a one-line CLI reproducer (and the shrunk
minimal schedule with its own reproducer).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.compiler import compile_module
from repro.recovery.failure import run_with_failure
from repro.workloads.programs import CONC_KERNELS, KERNELS, build_kernel
from repro.faults.injectors import run_schedule
from repro.faults.multicore import MTCampaignSpec, run_mt_trial
from repro.faults.schedule import FaultSchedule, TrialRecord
from repro.faults.shrink import shrink_schedule
from repro.faults import strategies as strat

#: One campaign task: the kernel, the path of the artifact cell that
#: tallies it, and the schedule to drive.
Task = Tuple[str, Tuple[str, ...], FaultSchedule]

STRATEGIES = ("single", "nested", "torn", "corruption", "boundary", "random")


@dataclass
class CampaignSpec:
    """Everything that determines a campaign's schedule list."""

    kernels: List[str] = field(default_factory=lambda: list(KERNELS))
    strategies: List[str] = field(default_factory=lambda: list(STRATEGIES))
    seed: int = 1
    k: int = 2  # nested-crash depth
    stride: int = 7  # primary-cut stride
    stride2: int = 5  # nested-offset stride
    torn_stride: int = 7
    corruption_trials: int = 40
    random_trials: int = 30
    max_shrink_evals: int = 150

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernels": list(self.kernels),
            "strategies": list(self.strategies),
            "seed": self.seed,
            "k": self.k,
            "stride": self.stride,
            "stride2": self.stride2,
            "torn_stride": self.torn_stride,
            "corruption_trials": self.corruption_trials,
            "random_trials": self.random_trials,
        }

    def tasks(self) -> List[Task]:
        """Expand the spec into concrete tasks, one cell per strategy."""
        tasks: List[Task] = []
        for kernel in self.kernels:
            module, entry, args, _ref_out, _ref_mem = _kernel_context(kernel)
            profile = strat.profile_kernel(module, kernel, entry, args)
            for name in self.strategies:
                if name == "single":
                    schedules = strat.single_cut_sweep(profile, self.stride)
                elif name == "nested":
                    schedules = strat.nested_crash_sweep(
                        module, profile, entry, args,
                        self.stride, self.stride2, k=self.k, seed=self.seed,
                    )
                elif name == "torn":
                    schedules = strat.torn_persist_sweep(profile, self.torn_stride)
                elif name == "corruption":
                    schedules = strat.corruption_campaign(
                        profile, self.corruption_trials, self.seed
                    )
                elif name == "boundary":
                    schedules = strat.boundary_state_sweep(module, kernel, entry, args)
                elif name == "random":
                    schedules = strat.random_mix(profile, self.random_trials, self.seed)
                else:
                    raise ValueError(
                        f"unknown strategy {name!r}; choose from {STRATEGIES}"
                    )
                tasks.extend((kernel, (s.strategy,), s) for s in schedules)
        return tasks

    def sections(self) -> Dict[str, object]:
        """Artifact sections beyond the shared trial tallies: none."""
        return {}


def smoke_spec(seed: int = 1) -> CampaignSpec:
    """A ~30s seeded campaign over fast kernels (CI gate)."""
    return CampaignSpec(
        kernels=["counter", "linked_list", "hashmap", "fib", "ringbuffer"],
        strategies=["nested", "torn", "corruption", "boundary"],
        seed=seed,
        stride=23,
        stride2=9,
        torn_stride=17,
        corruption_trials=20,
        random_trials=10,
    )


# ----------------------------------------------------------------------
# Per-process kernel cache (the pool initializer path).
# ----------------------------------------------------------------------
_CACHE: Dict[str, Tuple[object, str, tuple, List[int], object]] = {}


def _kernel_context(name: str):
    """Compiled module + failure-free reference, cached per process."""
    ctx = _CACHE.get(name)
    if ctx is None:
        module, entry, args = build_kernel(name)
        compile_module(module)
        ref_model, completed, ref_state = run_with_failure(module, None, entry, args)
        assert completed and ref_state is not None
        ctx = (module, entry, args, list(ref_model.released_output), ref_state.memory)
        _CACHE[name] = ctx
    return ctx


def run_trial(kernel: str, schedule: FaultSchedule) -> TrialRecord:
    """Drive one schedule and classify the outcome against the reference.

    The one trial entry point of the pool, the shrinker and ``python -m
    repro.faults repro``: a concurrent kernel runs the multicore trial
    (canonical comparison, :func:`~repro.faults.multicore.run_mt_trial`),
    any other kernel the single-core one (exact output and NVM image).
    """
    if kernel in CONC_KERNELS:
        return run_mt_trial(kernel, schedule)
    module, entry, args, ref_output, ref_memory = _kernel_context(kernel)
    try:
        outcome = run_schedule(module, entry, args, schedule)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return TrialRecord(kernel, schedule, "error", f"{type(exc).__name__}: {exc}")
    if outcome.status == "degraded":
        return TrialRecord(
            kernel,
            schedule,
            "degraded",
            outcome.degraded.reason,
            epochs=outcome.epochs,
        )
    matches = outcome.output == ref_output and (
        outcome.memory is None or outcome.memory == ref_memory
    )
    if outcome.status == "completed":
        status = "completed" if matches else "divergent"
        detail = "" if matches else "clean run mismatched reference"
        return TrialRecord(kernel, schedule, status, detail)
    if matches:
        detail = outcome.flip_victim or ""
        return TrialRecord(kernel, schedule, "ok", detail, epochs=outcome.epochs)
    detail = f"output {outcome.output[:8]} != {ref_output[:8]}"
    if outcome.output == ref_output:
        detail = "final NVM state diverged"
    return TrialRecord(kernel, schedule, "divergent", detail, epochs=outcome.epochs)


def _pool_trial(task: Tuple[int, str, Dict[str, object]]) -> Dict[str, object]:
    trial_id, kernel, sched_dict = task
    out = run_trial(kernel, FaultSchedule.from_dict(sched_dict)).to_dict()
    out["trial"] = trial_id
    return out


def _empty_cell() -> Dict[str, int]:
    return {"trials": 0, "ok": 0, "completed": 0, "degraded": 0,
            "divergent": 0, "error": 0}


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def run_campaign(
    spec: Union[CampaignSpec, MTCampaignSpec],
    jobs: int = 1,
    log=None,
) -> Dict[str, object]:
    """Run a single-core or multicore campaign; return the JSON artifact."""
    from repro.harness.engine import parallel_map

    t0 = time.time()
    tasks = spec.tasks()
    # The fan-out hands back results as workers finish (ordered=False);
    # resort by trial id so completion order cannot reorder divergences
    # between identical runs.
    records: List[Dict[str, object]] = parallel_map(
        _pool_trial,
        [(i, kernel, s.to_dict()) for i, (kernel, _path, s) in enumerate(tasks)],
        jobs=jobs,
        chunksize=8,
        ordered=False,
    )
    records.sort(key=lambda r: r["trial"])

    totals = _empty_cell()
    totals["trials"] = len(records)
    per_kernel: Dict[str, Dict[str, object]] = {}
    failures: List[Tuple[Dict[str, object], Tuple[str, ...]]] = []
    for rec, (kernel, path, _s) in zip(records, tasks):
        if len(path) > 1:  # multicore cells are (scheme, strategy)
            rec["scheme"] = path[0]
        node = per_kernel.setdefault(kernel, {})
        for key in path[:-1]:
            node = node.setdefault(key, {})
        cell = node.setdefault(path[-1], _empty_cell())
        status = rec["status"]
        totals[status] += 1
        cell["trials"] += 1
        cell[status] += 1
        if status in ("divergent", "error"):
            failures.append((rec, path))

    # Shrink every failure to a minimal reproducer (in-process: the
    # oracle must be deterministic and cheap, and failures are rare).
    divergences: List[Dict[str, object]] = []
    for rec, path in failures:
        kernel = rec["kernel"]
        schedule = FaultSchedule.from_dict(rec["schedule"])

        def still_fails(candidate: FaultSchedule, _kernel=kernel) -> bool:
            return run_trial(_kernel, candidate).is_failure

        shrunk = shrink_schedule(schedule, still_fails, spec.max_shrink_evals)
        entry = dict(rec)
        entry["shrunk_schedule"] = shrunk.to_dict()
        entry["shrunk_repro"] = shrunk.repro_command(kernel)
        divergences.append(entry)
        if log is not None:
            where = "/".join((kernel,) + path[:-1])
            log(f"DIVERGENCE {where}: {schedule.describe()} -> shrunk "
                f"{shrunk.describe()}\n  repro: {entry['shrunk_repro']}")

    return {
        "meta": {
            **spec.to_dict(),
            "jobs": jobs,
            "elapsed_s": round(time.time() - t0, 2),
        },
        "totals": totals,
        "per_kernel": per_kernel,
        **spec.sections(),
        "divergences": divergences,
    }


def write_artifact(artifact: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
