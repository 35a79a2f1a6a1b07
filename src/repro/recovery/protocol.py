"""The cWSP power-failure recovery protocol (Section VII of the paper).

Three steps, exactly as the paper describes:

1. revert speculative NVM updates with the undo logs (done inside
   :meth:`FunctionalPersistence.failure_image`);
2. execute the oldest unpersisted region's recovery slice to rebuild
   its live-in registers from checkpoint storage and immediates;
3. resume execution from the beginning of that region.

The caller frames beneath the recovery point are taken from the
boundary's oracle snapshot -- the stand-in for ABI stack spills that
live in NVM on a real machine (see
:class:`repro.recovery.model.BoundarySnapshot`).  The *top* frame's
registers are never taken from the snapshot: they come from the
recovery slice, and with ``validate=True`` every restored value is
checked against the snapshot, which is how the test suite proves the
checkpoint-pruning pass correct.

Beyond the paper, :func:`recover_checked` hardens step 1 against
*damaged* persistent storage (torn persists, bit flips in undo logs or
checkpoint slots): every log entry and NVM word is checksum-validated,
and when damage touches anything recovery depends on, the protocol
**degrades gracefully** -- it reverts what is verifiably intact and
returns a structured :class:`DegradedRecovery` (whole-program restart)
instead of silently resuming from poisoned state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.function import Module
from repro.ir.interpreter import CKPT_BASE, HEAP_BASE, Frame, Interpreter, MachineState, Memory
from repro.ir.values import Reg
from repro.recovery.model import BoundarySnapshot, FailureImage, FunctionalPersistence


class RecoveryError(RuntimeError):
    """Recovery failed: missing slice, or a restored value is wrong."""


@dataclass
class RecoveryResult:
    """Outcome of recovery + resumed execution to completion."""

    #: Observable output: released-before-failure + resumed execution.
    output: List[int]
    #: Final architectural memory after the resumed run.
    memory: Memory
    #: Where recovery resumed: (func, boundary_uid, seq), or None if the
    #: program restarted from scratch.
    recovery_ptr: Optional[Tuple[str, int, int]]
    #: Registers the recovery slice rebuilt (empty on restart).
    restored_regs: Dict[Reg, int] = field(default_factory=dict)
    #: Instructions executed by the resumed run.
    resumed_steps: int = 0


@dataclass
class DegradedRecovery:
    """Structured graceful-degradation outcome: detected storage damage
    made resuming unsafe, so recovery falls back to whole-program
    restart rather than silently resuming from poisoned state.

    ``released_output`` is the observable prefix already emitted before
    the failure -- a restarted program re-emits from the beginning, so
    callers can tell exactly what degradation cost them.
    """

    reason: str
    #: Undo-log entries whose checksum failed: (region_seq, addr).
    damaged_log_entries: List[Tuple[int, int]] = field(default_factory=list)
    #: NVM words failing ECC that recovery depends on.
    damaged_words: List[int] = field(default_factory=list)
    #: The recovery point that had to be abandoned (None if restarting
    #: was the plan anyway).
    recovery_ptr: Optional[Tuple[str, int, int]] = None
    released_output: List[int] = field(default_factory=list)
    #: The degradation action; whole-program restart is the only fallback.
    action: str = "restart"


def _rebuild_resume_state(
    module: Module,
    memory: Memory,
    recovery_ptr: Tuple[str, int, int],
    snapshots: Dict[int, BoundarySnapshot],
    validate: bool,
    ckpt_base: int = CKPT_BASE,
    prefix: str = "",
) -> Tuple[MachineState, Dict[Reg, int]]:
    """Steps 2-3 setup: run the recovery slice against *memory* (the
    surviving NVM image, shared by every thread) and rebuild the frames.

    ``ckpt_base`` selects the core's checkpoint storage; ``prefix``
    leads every error message (multi-threaded recovery names the thread).
    """
    func, boundary_uid, seq = recovery_ptr
    rslice = module.recovery_slices.get((func, boundary_uid))
    if rslice is None:
        raise RecoveryError(f"{prefix}no recovery slice for @{func}#{boundary_uid}")
    snap = snapshots.get(seq)
    if snap is None:
        raise RecoveryError(f"{prefix}no boundary snapshot for region seq {seq}")
    restored = rslice.execute(module, memory, ckpt_base)
    if validate:
        oracle = snap.frames[-1].regs
        for reg, value in restored.items():
            if reg in oracle and oracle[reg] != value:
                raise RecoveryError(
                    f"{prefix}RS restored %{reg.name}={value}, execution had "
                    f"{oracle[reg]} (boundary @{func}#{boundary_uid})"
                )
    state = MachineState()
    state.memory = memory
    state.ckpt_base = ckpt_base
    for i, f in enumerate(snap.frames):
        top = i == len(snap.frames) - 1
        nf = Frame(f.fn, dict(restored) if top else dict(f.regs), f.saved_sp, f.ret_reg)
        nf.block = f.block
        nf.idx = f.idx
        state.frames.append(nf)
    state.sp = snap.sp
    state.brk = snap.brk
    return state, restored


def _restart_state(
    module: Module,
    nvm: Dict[int, int],
    entry: str,
    args: Tuple[int, ...],
    interp: Interpreter,
    spill_args: bool,
) -> MachineState:
    """Whole-program restart on the surviving NVM image."""
    state = MachineState()
    state.memory = Memory(nvm)
    fn = module.get(entry)
    if len(args) != len(fn.params):
        raise RecoveryError(f"@{entry} takes {len(fn.params)} args")
    regs = {p: a for p, a in zip(fn.params, args)}
    state.frames.append(Frame(fn, regs, saved_sp=state.sp))
    if spill_args:
        for p in fn.params:
            interp._spill(state, entry, p, regs[p], None)
    return state


def _recover_from_image(
    module: Module,
    model: FunctionalPersistence,
    nvm: Dict[int, int],
    entry: str,
    args: Tuple[int, ...],
    max_steps: int,
    spill_args: bool,
    validate: bool,
) -> RecoveryResult:
    interp = Interpreter(module, spill_args=spill_args)
    if model.recovery_ptr is None:
        # No region ever became non-speculative: every program store was
        # reverted or lost; restart the program on the (clean) NVM.
        state = _restart_state(module, nvm, entry, args, interp, spill_args)
        restored: Dict[Reg, int] = {}
    else:
        state, restored = _rebuild_resume_state(
            module, Memory(nvm), model.recovery_ptr, model.snapshots, validate
        )
    steps_before = state.steps
    interp.resume(state, max_steps=max_steps)
    return RecoveryResult(
        output=list(model.released_output) + state.output,
        memory=state.memory,
        recovery_ptr=model.recovery_ptr,
        restored_regs=restored,
        resumed_steps=state.steps - steps_before,
    )


def recover_and_resume(
    module: Module,
    model: FunctionalPersistence,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    max_steps: int = 10_000_000,
    spill_args: bool = True,
    validate: bool = True,
) -> RecoveryResult:
    """Run the recovery protocol against *model*'s failure image."""
    return _recover_from_image(
        module, model, model.failure_image(), entry, args, max_steps, spill_args, validate
    )


def assess_damage(
    module: Module,
    model: FunctionalPersistence,
    image: FailureImage,
) -> Optional[DegradedRecovery]:
    """Decide whether detected storage damage makes resuming unsafe.

    The graceful-degradation contract:

    - a damaged *undo-log entry* means some speculative NVM update
      cannot be reverted -- the image is untrusted, degrade;
    - a damaged word in *checkpoint storage* means recovery slices
      (this one or a later recovery's) could rebuild live-ins from
      garbage -- degrade;
    - a damaged *program-data* word is tolerable: it can only be a torn
      in-flight store, its region is at-or-after the recovery point, and
      idempotent re-execution rewrites it before any read (the same
      argument that makes clean-cut head-region persists safe).
    """
    if image.damaged_log_entries:
        return DegradedRecovery(
            reason=(
                f"{len(image.damaged_log_entries)} undo-log entries failed "
                "checksum validation; speculative updates cannot be reverted"
            ),
            damaged_log_entries=list(image.damaged_log_entries),
            damaged_words=list(image.damaged_words),
            recovery_ptr=model.recovery_ptr,
            released_output=list(model.released_output),
        )
    damaged_ckpt = [a for a in image.damaged_words if CKPT_BASE <= a < HEAP_BASE]
    if damaged_ckpt:
        return DegradedRecovery(
            reason=(
                f"{len(damaged_ckpt)} checkpoint-storage words failed ECC; "
                "recovery slices cannot be trusted"
            ),
            damaged_words=damaged_ckpt,
            recovery_ptr=model.recovery_ptr,
            released_output=list(model.released_output),
        )
    return None


def recover_checked(
    module: Module,
    model: FunctionalPersistence,
    entry: str = "main",
    args: Tuple[int, ...] = (),
    max_steps: int = 10_000_000,
    spill_args: bool = True,
    validate: bool = True,
) -> Union[RecoveryResult, DegradedRecovery]:
    """Checksum-validating recovery with graceful degradation.

    Reverts every verifiably-intact undo-log entry, then either resumes
    normally (no recovery-critical damage) or returns a
    :class:`DegradedRecovery` describing exactly what was damaged and
    that the fallback is a whole-program restart.  Never silently
    resumes over corrupted logs or checkpoint storage.
    """
    image = model.failure_image_checked()
    degraded = assess_damage(module, model, image)
    if degraded is not None:
        return degraded
    return _recover_from_image(
        module, model, image.nvm, entry, args, max_steps, spill_args, validate
    )
