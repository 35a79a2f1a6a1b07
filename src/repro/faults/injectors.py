"""Fault injection mechanics: torn persists, storage bit flips, and
nested power cuts during recovery.

Nested crashes run in *epochs*: epoch 0 is the original run
(:func:`repro.recovery.failure.run_with_failure`), each power cut ends
an epoch, and each recovery starts the next epoch
**under a fresh persistence model** seeded with the surviving NVM image
(:meth:`FunctionalPersistence.for_resume`), so another cut can land
anywhere inside the resumed run -- including at offset 0, i.e. during
recovery itself before any resumed instruction commits.  Recovery must
be idempotent under this adversary: a k-crash sequence converges to the
failure-free run's observable behaviour.  Every epoch counts events
and cuts power through the one driver,
:func:`repro.recovery.failure.drive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.function import Module
from repro.ir.interpreter import CKPT_BASE, HEAP_BASE, Interpreter, MachineState, Memory
from repro.ir.values import to_s64
from repro.recovery.failure import drive, run_with_failure
from repro.recovery.model import FunctionalPersistence, PersistenceConfig, PowerFailure
from repro.recovery.protocol import (
    DegradedRecovery,
    _rebuild_resume_state,
    assess_damage,
    recover_checked,
)

from repro.faults.schedule import FaultSchedule, FlipSpec


def make_config(overrides: Dict[str, object]) -> Optional[PersistenceConfig]:
    """Build a PersistenceConfig from schedule overrides (None = default)."""
    if not overrides:
        return None
    fields = dict(overrides)
    if "mc_skew" in fields:
        fields["mc_skew"] = tuple(fields["mc_skew"])
    return PersistenceConfig(**fields)


class TornPersistInjector:
    """Fault hook: tear the Nth MC apply, then cut power on the spot."""

    def __init__(self, apply_index: int) -> None:
        self.remaining = apply_index
        self.fired = False

    def __call__(self, model: FunctionalPersistence, kind: str, payload) -> bool:
        if kind != "apply":
            return False
        self.remaining -= 1
        if self.remaining == 0:
            self.fired = True
            model.apply_torn(payload)
            raise PowerFailure()
        return False


class ProbeHook:
    """Fault hook that only observes: counts applies and samples PB/RBT
    occupancy at every drain opportunity (for boundary-state strategies)."""

    def __init__(self, pb_probe=None, rbt_probe=None) -> None:
        self.applies = 0
        self.pb_probe = pb_probe
        self.rbt_probe = rbt_probe

    def __call__(self, model: FunctionalPersistence, kind: str, payload) -> bool:
        if kind == "apply":
            self.applies += 1
        elif kind == "drain":
            if self.pb_probe is not None:
                self.pb_probe.sample(model.events_seen, len(model.pb))
            if self.rbt_probe is not None:
                self.rbt_probe.sample(model.events_seen, len(model.rbt))
        return False


def apply_flip(model: FunctionalPersistence, flip: FlipSpec) -> Optional[str]:
    """Corrupt surviving persistent state per *flip*; returns a
    description of the victim, or None if the population was empty
    (corruption had nothing to hit -- a no-op trial)."""
    bit = flip.bit % 64
    if flip.target == "log":
        population = [
            (seq, i) for seq in sorted(model.logs) for i in range(len(model.logs[seq]))
        ]
        if not population:
            return None
        seq, i = population[flip.index % len(population)]
        addr, old, chk = model.logs[seq][i]
        model.logs[seq][i] = (addr, to_s64(old ^ (1 << bit)), chk)
        return f"log entry (region {seq}, #{i}, addr {addr:#x}) bit {bit}"
    if flip.target == "ckpt":
        population = sorted(a for a in model.nvm if CKPT_BASE <= a < HEAP_BASE)
        if not population:
            return None
        addr = population[flip.index % len(population)]
        model.nvm[addr] = to_s64(model.nvm[addr] ^ (1 << bit))
        return f"checkpoint word {addr:#x} bit {bit}"
    raise ValueError(f"unknown flip target {flip.target!r}")


@dataclass
class EpochOutcome:
    """One resumed epoch: ended by a cut, by completion, or by a
    graceful-degradation verdict before resuming."""

    kind: str  # "cut" | "completed" | "degraded"
    model: Optional[FunctionalPersistence] = None
    state: Optional[MachineState] = None
    degraded: Optional[DegradedRecovery] = None
    events: int = 0


def resume_epoch(
    module: Module,
    model: FunctionalPersistence,
    cut: Optional[int],
    entry: str,
    args: Tuple[int, ...],
    config: Optional[PersistenceConfig],
    max_steps: int = 10_000_000,
    validate: bool = True,
) -> EpochOutcome:
    """Recover from *model*'s failure and run the next epoch under a
    fresh persistence model, optionally cutting power again after *cut*
    committed events (0 = during recovery, before any event commits)."""
    image = model.failure_image_checked()
    degraded = assess_damage(module, model, image)
    if degraded is not None:
        return EpochOutcome(kind="degraded", degraded=degraded)
    interp = Interpreter(module, spill_args=True)
    ptr = model.recovery_ptr
    if ptr is None:
        new_model = FunctionalPersistence.for_resume(module, image.nvm, None, None, config)

        def run(on_event):
            return interp.run(entry, args, max_steps, on_event, new_model.on_boundary)
    else:
        state, _restored = _rebuild_resume_state(
            module, Memory(image.nvm), ptr, model.snapshots, validate
        )
        new_model = FunctionalPersistence.for_resume(
            module, image.nvm, ptr, model.snapshots.get(ptr[2]), config
        )

        def run(on_event):
            return interp.resume(state, max_steps, on_event, new_model.on_boundary)
    if cut == 0:
        # Power dies again during recovery: the recovery slice wrote
        # nothing persistent, so the next epoch faces the same image
        # and the same recovery pointer (idempotent recovery).
        return EpochOutcome(kind="cut", model=new_model)
    completed, events, final = drive(new_model, run, cut)
    return EpochOutcome(
        kind="completed" if completed else "cut",
        model=new_model,
        state=final,
        events=events,
    )


@dataclass
class ScheduleOutcome:
    """Full result of driving one FaultSchedule to its conclusion."""

    status: str  # "recovered" | "completed" | "degraded"
    output: List[int] = field(default_factory=list)
    memory: Optional[Memory] = None
    degraded: Optional[DegradedRecovery] = None
    epochs: int = 0
    flip_victim: Optional[str] = None


def run_schedule(
    module: Module,
    entry: str,
    args: Tuple[int, ...],
    schedule: FaultSchedule,
    max_steps: int = 10_000_000,
) -> ScheduleOutcome:
    """Execute one adversarial plan end to end.

    Epoch 0 runs to the primary cut (an event-count cut or a torn
    persist); each nested cut ends another resumed epoch; corruption
    (if scheduled) lands just before the final recovery, which is the
    checksum-validating :func:`recover_checked`.
    """
    config = make_config(schedule.config)
    hook = TornPersistInjector(schedule.tear.apply_index) if schedule.tear else None
    cut0 = None
    if schedule.tear is None:
        cut0 = schedule.cuts[0] if schedule.cuts else None
    model, completed, state = run_with_failure(
        module, cut0, entry, args, config, max_steps, fault_hook=hook
    )
    if completed:
        # The fault never fired (cut/tear beyond program end): clean run.
        return ScheduleOutcome(
            status="completed",
            output=list(model.released_output),
            memory=state.memory,
        )

    prefix: List[int] = []
    epochs = 0
    for cut in schedule.nested_cuts:
        prefix.extend(model.released_output)
        out = resume_epoch(module, model, cut, entry, args, config, max_steps)
        epochs += 1
        if out.kind == "degraded":
            return ScheduleOutcome(
                status="degraded", output=prefix, degraded=out.degraded, epochs=epochs
            )
        model = out.model
        if out.kind == "completed":
            return ScheduleOutcome(
                status="recovered",
                output=prefix + list(model.released_output),
                memory=out.state.memory,
                epochs=epochs,
            )

    flip_victim = None
    if schedule.flip is not None:
        flip_victim = apply_flip(model, schedule.flip)
    result = recover_checked(module, model, entry, args, max_steps)
    epochs += 1
    if isinstance(result, DegradedRecovery):
        return ScheduleOutcome(
            status="degraded",
            output=prefix,
            degraded=result,
            epochs=epochs,
            flip_victim=flip_victim,
        )
    return ScheduleOutcome(
        status="recovered",
        output=prefix + result.output,
        memory=result.memory,
        epochs=epochs,
        flip_victim=flip_victim,
    )
