"""End-to-end crash-consistency checking.

For a deterministic program, whole-system persistence demands that a
power failure at *any* instruction, followed by the recovery protocol
and resumed execution, yields exactly the failure-free run's observable
output and final NVM state.  ``check_crash_consistency`` sweeps failure
points across the whole run (and across persistence configurations if
asked) and reports every divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ir.function import Module
from repro.recovery.failure import run_with_failure, sampled_points
from repro.recovery.model import PersistenceConfig
from repro.recovery.protocol import RecoveryError, recover_and_resume


@dataclass
class Divergence:
    """One failure point whose recovery did not reproduce the reference."""

    fail_after_event: int
    reason: str


@dataclass
class ConsistencyReport:
    """Result of a failure-point sweep."""

    total_events: int
    points_checked: int = 0
    restarts: int = 0  # recoveries that restarted the program from scratch
    resumed_steps_total: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: Planned failure points the sweep could not inject (the run
    #: completed before the failure fired).  Should be empty now that
    #: points are capped at the final committed event; reported rather
    #: than silently dropped.
    skipped_points: List[int] = field(default_factory=list)
    #: The reference run's observable output (released by the model).
    reference_output: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def mean_resumed_fraction(self) -> float:
        """Mean fraction of the program the recovery had to re-execute."""
        if not self.points_checked or not self.total_events:
            return 0.0
        return self.resumed_steps_total / (self.points_checked * self.total_events)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        text = (
            f"{status}: {self.points_checked} failure points over "
            f"{self.total_events} events, {self.restarts} restarts, "
            f"mean re-executed fraction {self.mean_resumed_fraction:.3f}"
        )
        if self.skipped_points:
            text += f", {len(self.skipped_points)} points skipped"
        return text


def check_crash_consistency(
    module: Module,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    stride: int = 7,
    config: Optional[PersistenceConfig] = None,
    max_steps: int = 10_000_000,
    spill_args: bool = True,
) -> ConsistencyReport:
    """Inject a power failure after every ``stride``-th committed event.

    The reference is the failure-free run *under the same model* (so the
    reference output ordering reflects the same region retirement, and
    the model's event count defines the sweep range).  For each failure
    point: recover, resume to completion, and compare observable output
    and final memory.  The final committed event is always a failure
    point regardless of stride; points that could not be injected are
    reported in ``skipped_points`` instead of silently ending the sweep.
    """
    ref_model, ref_completed, ref_state = run_with_failure(
        module, None, entry, args, config, max_steps, spill_args
    )
    assert ref_completed and ref_state is not None
    total = ref_model.events_seen
    ref_output = list(ref_model.released_output)
    ref_memory = ref_state.memory

    report = ConsistencyReport(total_events=total, reference_output=ref_output)
    for point in sampled_points(total, stride):
        model, completed, _ = run_with_failure(
            module, point, entry, args, config, max_steps, spill_args
        )
        if completed:
            report.skipped_points.append(point)
            continue
        report.points_checked += 1
        try:
            result = recover_and_resume(
                module, model, entry, args, max_steps, spill_args
            )
        except RecoveryError as exc:
            report.divergences.append(Divergence(point, f"recovery error: {exc}"))
            continue
        if result.recovery_ptr is None:
            report.restarts += 1
        report.resumed_steps_total += result.resumed_steps
        if result.output != ref_output:
            report.divergences.append(
                Divergence(point, f"output {result.output} != {ref_output}")
            )
        elif result.memory != ref_memory:
            report.divergences.append(Divergence(point, "final NVM state diverged"))
    return report
