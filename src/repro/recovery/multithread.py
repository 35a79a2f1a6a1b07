"""Multi-threaded whole-system persistence (Section VIII of the paper).

The paper's multi-core argument: synchronization primitives are region
boundaries whose stores persist before the primitive commits, so for
data-race-free (DRF) programs (a) at most one thread is inside a
critical section at power failure and (b) each thread recovers
*independently* from its own oldest unpersisted region, with no
happens-before tracking.

This module realizes that argument executably:

- threads are interpreted round-robin with switches only at region
  boundaries (for DRF programs, boundary-granular interleaving is
  adequate: conflicting accesses are separated by atomics, which are
  single-instruction regions that persist synchronously); the
  scheduling order is controllable (``interleave``), which is the
  dimension the multicore fault campaign minimizes over;
- all threads share one NVM/persist model
  (:class:`FunctionalPersistence` extended with per-thread RBTs and
  per-thread recovery pointers -- region IDs are globally unique, as
  the paper's hardware counter guarantees);
- on power failure, the surviving undo logs revert in reverse global
  order, and every thread resumes from its own recovery pointer;
- recovery itself runs under a *fresh* tracked model
  (:meth:`ThreadedPersistence.for_resume`), so power can fail again
  during a resumed epoch -- including while some thread is still
  re-executing its recovery region (a cut "during another thread's
  recovery") -- and the next recovery faces a consistent image.

Because the post-recovery interleaving is a *different* admissible DRF
schedule, outcome comparison is meaningful for confluent programs
(commutative updates, disjoint data) -- which is exactly what the
checker's workloads use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Module
from repro.ir.interpreter import (
    EventHook,
    Frame,
    Interpreter,
    MachineState,
    Memory,
    TraceEvent,
)
from repro.recovery.failure import drive
from repro.recovery.model import (
    BoundarySnapshot,
    FunctionalPersistence,
    PersistenceConfig,
    RegionRecord,
)
from repro.recovery.protocol import (
    DegradedRecovery,
    RecoveryError,
    _rebuild_resume_state,
    assess_damage,
)

_STACK_STRIDE = 1 << 20
_HEAP_STRIDE = 1 << 24
#: Per-core checkpoint storage stride (checkpoint storage is per-core).
_CKPT_STRIDE = 1 << 16


class _Switch(Exception):
    """Internal: thread reached a region boundary; yield the CPU."""


class ThreadedPersistence(FunctionalPersistence):
    """FunctionalPersistence with per-thread RBT FIFOs and pointers.

    Region sequence numbers stay globally unique (one counter), but
    speculation state -- "is this region its thread's oldest
    unpersisted?" -- is tracked per thread, as are recovery pointers.
    """

    def __init__(self, module: Module, n_threads: int, config=None) -> None:
        self.n_threads = n_threads
        self.current_thread = 0
        self.thread_of_region: Dict[int, int] = {}
        self.thread_rbt: List[List[int]] = [[] for _ in range(n_threads)]
        self.thread_recovery_ptr: List[Optional[Tuple[str, int, int]]] = [
            None
        ] * n_threads
        self.thread_released: List[List[int]] = [[] for _ in range(n_threads)]
        super().__init__(module, config)  # opens thread 0's pre-entry region
        for tid in range(1, n_threads):
            self.current_thread = tid
            self._open_region(func="", boundary_uid=-1)
        self.current_thread = 0

    @classmethod
    def for_resume(
        cls,
        module: Module,
        n_threads: int,
        nvm: Dict[int, int],
        thread_ptrs: Sequence[Optional[Tuple[str, int, int]]],
        thread_snaps: Sequence[Optional[BoundarySnapshot]],
        config: Optional[PersistenceConfig] = None,
    ) -> "ThreadedPersistence":
        """Model for a *resumed* multi-threaded epoch after power failure.

        Each thread's pre-entry region is re-keyed to that thread's
        recovery point (mirroring the single-thread
        :meth:`FunctionalPersistence.for_resume`): its re-execution is
        the thread's new head, the per-thread recovery pointer still
        names it, and the boundary's oracle snapshot carries over -- so
        a second failure during the resumed epoch recovers every thread
        to the same point until real progress retires it.  A ``None``
        pointer means that thread restarts from its entry.
        """
        model = cls(module, n_threads, config)
        model.seed_nvm(nvm)
        for tid, ptr in enumerate(thread_ptrs):
            if ptr is None:
                continue
            func, boundary_uid, _old_seq = ptr
            pre = model.regions[model.thread_rbt[tid][0]]
            pre.func = func
            pre.boundary_uid = boundary_uid
            model.thread_recovery_ptr[tid] = (func, boundary_uid, pre.seq)
            snap = thread_snaps[tid]
            if snap is not None:
                model.snapshots[pre.seq] = BoundarySnapshot(
                    seq=pre.seq, frames=snap.frames, sp=snap.sp, brk=snap.brk
                )
        return model

    # -- region lifecycle, per thread ----------------------------------
    def _open_region(self, func: str, boundary_uid: int) -> None:
        rec = RegionRecord(seq=self._seq, func=func, boundary_uid=boundary_uid)
        self.regions[rec.seq] = rec
        self.logs[rec.seq] = []
        tid = self.current_thread
        self.thread_of_region[rec.seq] = tid
        self.thread_rbt[tid].append(rec.seq)
        self._seq += 1
        self.max_rbt_occupancy = max(
            self.max_rbt_occupancy, max(len(r) for r in self.thread_rbt)
        )

    def _head_region(self):
        rbt = self.thread_rbt[self.current_thread]
        return self.regions[rbt[0]] if rbt else None

    def _current_region(self):
        rbt = self.thread_rbt[self.current_thread]
        return self.regions[rbt[-1]]

    def _try_retire(self, final: bool = False) -> None:
        for tid in range(self.n_threads):
            rbt = self.thread_rbt[tid]
            while rbt:
                head = self.regions[rbt[0]]
                if not (head.ended and head.pending == 0):
                    break
                if not final and len(rbt) < 2:
                    break
                rbt.pop(0)
                self.thread_released[tid].extend(head.outputs)
                self.logs.pop(head.seq, None)
                del self.regions[head.seq]
                del self.thread_of_region[head.seq]
                if rbt:
                    new_head = self.regions[rbt[0]]
                    if new_head.boundary_uid >= 0:
                        self.thread_recovery_ptr[tid] = (
                            new_head.func,
                            new_head.boundary_uid,
                            new_head.seq,
                        )

    def _on_boundary(self, func: str, uid: int) -> None:
        self._current_region().ended = True
        self._try_retire()
        if len(self.thread_rbt[self.current_thread]) >= self.config.rbt_size:
            self.rbt_forced_drains += 1
            while len(self.thread_rbt[self.current_thread]) >= self.config.rbt_size:
                self._drain_one()
        self._open_region(func, uid)

    def finish(self) -> None:
        for tid in range(self.n_threads):
            rbt = self.thread_rbt[tid]
            if rbt:
                self.regions[rbt[-1]].ended = True
        self.drain_all()
        self._try_retire(final=True)


@dataclass
class ThreadSpec:
    """One thread's entry point."""

    entry: str
    args: Tuple[int, ...] = ()


@dataclass
class ThreadedRun:
    """Result of a (possibly failure-interrupted) multi-threaded run."""

    model: ThreadedPersistence
    completed: bool
    outputs: List[List[int]] = field(default_factory=list)
    memory: Optional[Memory] = None
    #: Committed events before completion or the cut (excludes the
    #: pre-run argument spills, which precede the event counter).
    events: int = 0


@dataclass
class ThreadedEpoch:
    """One resumed multi-threaded epoch (nested-crash machinery).

    ``kind`` is ``"completed"`` (all threads ran to the end; ``outputs``
    holds each thread's outs from *this epoch only* -- released prefixes
    from earlier epochs are the caller's to accumulate), ``"cut"``
    (power failed again after ``events`` committed events; ``model`` is
    the new epoch's tracked model, ready for another recovery), or
    ``"degraded"`` (storage damage made resuming unsafe).
    """

    kind: str  # "completed" | "cut" | "degraded"
    model: Optional[ThreadedPersistence] = None
    outputs: Optional[List[List[int]]] = None
    memory: Optional[Memory] = None
    degraded: Optional[DegradedRecovery] = None
    events: int = 0


#: Observer for profiling runs: called after each committed event with
#: (event, running_event_count, thread_id).
EventObserver = Callable[[TraceEvent, int, int], None]


class ThreadedExecution:
    """Round-robin, boundary-granular execution of N threads.

    ``interleave`` controls the scheduling order: each round runs the
    threads in that sequence (entries taken modulo the thread count;
    repeats give a thread several boundary-slices per round; any thread
    missing from the pattern is appended so the order always covers all
    threads).  ``None`` is plain round-robin.  The post-recovery epoch
    uses the same order, so a fault schedule pins down both *when*
    power dies and *how* the threads were interleaved around it.
    """

    def __init__(
        self,
        module: Module,
        threads: Sequence[ThreadSpec],
        config: Optional[PersistenceConfig] = None,
        max_steps: int = 5_000_000,
        interleave: Optional[Sequence[int]] = None,
    ) -> None:
        self.module = module
        self.threads = list(threads)
        self.config = config
        self.max_steps = max_steps
        self.interp = Interpreter(module, spill_args=True)
        n = len(self.threads)
        order = [t % n for t in interleave] if interleave else list(range(n))
        order += [t for t in range(n) if t not in order]
        self.order: List[int] = order

    def _fresh_states(self, memory: Memory) -> List[MachineState]:
        states = []
        for tid, spec in enumerate(self.threads):
            state = MachineState()
            state.memory = memory
            state.sp -= tid * _STACK_STRIDE
            state.brk += tid * _HEAP_STRIDE
            state.ckpt_base += tid * _CKPT_STRIDE
            fn = self.module.get(spec.entry)
            regs = {p: a for p, a in zip(fn.params, spec.args)}
            state.frames.append(Frame(fn, regs, saved_sp=state.sp))
            states.append(state)
        return states

    def _drive(
        self,
        model: ThreadedPersistence,
        states: List[MachineState],
        fail_after_event: Optional[int],
        observe: Optional[EventObserver] = None,
    ) -> Tuple[bool, int]:
        """Run all threads in ``self.order`` until completion or a cut.

        Returns ``(completed, committed_events)``.  On completion the
        model is finished (everything drained and retired).
        """

        def round_robin(on_event: EventHook) -> None:
            def stop_switch(ev: TraceEvent, state: MachineState) -> None:
                model.on_boundary(ev, state)
                on_event(ev)
                raise _Switch()

            live = [bool(s.frames) for s in states]
            while any(live):
                for tid in self.order:
                    if not live[tid]:
                        continue
                    model.current_thread = tid
                    try:
                        self.interp.resume(
                            states[tid],
                            max_steps=self.max_steps,
                            on_event=on_event,
                            on_boundary=stop_switch,
                        )
                        live[tid] = False  # thread finished
                    except _Switch:
                        pass

        tagged = None
        if observe is not None:

            def tagged(ev: TraceEvent, count: int) -> None:
                observe(ev, count, model.current_thread)

        completed, events, _ = drive(model, round_robin, fail_after_event, tagged)
        return completed, events

    def run(
        self,
        fail_after_event: Optional[int] = None,
        observe: Optional[EventObserver] = None,
    ) -> ThreadedRun:
        """Execute all threads; optionally cut power mid-run."""
        model = ThreadedPersistence(self.module, len(self.threads), self.config)
        memory = Memory()
        states = self._fresh_states(memory)
        # Spill each thread's entry arguments (tracked, but ahead of the
        # cut counter: the cut offsets count committed instructions).
        for tid, spec in enumerate(self.threads):
            model.current_thread = tid
            fn = self.module.get(spec.entry)
            for p in fn.params:
                self.interp._spill(
                    states[tid], spec.entry, p, states[tid].frames[0].regs[p], model.on_event
                )
        completed, events = self._drive(model, states, fail_after_event, observe)
        if not completed:
            return ThreadedRun(model=model, completed=False, events=events)
        return ThreadedRun(
            model=model,
            completed=True,
            outputs=[list(s.output) for s in states],
            memory=memory,
            events=events,
        )

    # ------------------------------------------------------------------
    def resume_epoch(
        self,
        model: ThreadedPersistence,
        fail_after_event: Optional[int] = None,
        validate: bool = True,
    ) -> ThreadedEpoch:
        """Section VIII recovery as one epoch of the nested-crash game.

        Step 1 reverts the surviving undo logs in reverse global order
        (checksum-validated; damage degrades gracefully).  Steps 2-3
        replay every thread's recovery slice independently against its
        own checkpoint storage and resume all threads under a *fresh*
        tracked model, so power can fail again ``fail_after_event``
        committed events into the resumed epoch.  Offset 0 cuts power
        during recovery itself: the replay wrote nothing persistent, so
        the next epoch faces the same image and the same per-thread
        recovery pointers (idempotent recovery).  Small offsets land
        while some threads are still re-executing their recovery
        regions -- a cut during another thread's recovery.
        """
        image = model.failure_image_checked()
        degraded = assess_damage(self.module, model, image)
        if degraded is not None:
            return ThreadedEpoch(kind="degraded", degraded=degraded)
        ptrs = list(model.thread_recovery_ptr)
        snaps = [model.snapshots.get(p[2]) if p is not None else None for p in ptrs]
        new_model = ThreadedPersistence.for_resume(
            self.module, len(self.threads), image.nvm, ptrs, snaps, self.config
        )
        if fail_after_event == 0:
            return ThreadedEpoch(kind="cut", model=new_model)
        memory = Memory(image.nvm)
        states: List[MachineState] = []
        fresh = self._fresh_states(memory)
        for tid, spec in enumerate(self.threads):
            state = fresh[tid]
            if ptrs[tid] is None:
                # Nothing of this thread survived: restart it from its
                # entry (re-spill its arguments through the new model).
                new_model.current_thread = tid
                for p in self.module.get(spec.entry).params:
                    self.interp._spill(
                        state, spec.entry, p, state.frames[0].regs[p], new_model.on_event
                    )
            else:
                state, _restored = _rebuild_resume_state(
                    self.module,
                    memory,
                    ptrs[tid],
                    model.snapshots,
                    validate,
                    ckpt_base=state.ckpt_base,  # this core's slot storage
                    prefix=f"thread {tid}: ",
                )
            states.append(state)
        completed, events = self._drive(new_model, states, fail_after_event)
        if not completed:
            return ThreadedEpoch(kind="cut", model=new_model, events=events)
        return ThreadedEpoch(
            kind="completed",
            model=new_model,
            outputs=[list(s.output) for s in states],
            memory=memory,
            events=events,
        )

    def recover_and_resume(self, model: ThreadedPersistence) -> ThreadedRun:
        """Section VIII recovery: revert logs once, then every thread
        independently resumes from its own recovery pointer and runs to
        completion (single-recovery convenience over
        :meth:`resume_epoch`)."""
        epoch = self.resume_epoch(model)
        if epoch.kind == "degraded":
            raise RecoveryError(f"degraded recovery: {epoch.degraded.reason}")
        assert epoch.kind == "completed"
        outputs = [
            model.thread_released[tid] + epoch.outputs[tid]
            for tid in range(len(self.threads))
        ]
        return ThreadedRun(
            model=model,
            completed=True,
            outputs=outputs,
            memory=epoch.memory,
            events=epoch.events,
        )


def check_threaded_crash_consistency(
    module: Module,
    threads: Sequence[ThreadSpec],
    stride: int = 11,
    config: Optional[PersistenceConfig] = None,
) -> Tuple[int, List[str]]:
    """Sweep failure points over a multi-threaded run.

    Returns ``(points_checked, divergences)``.  Workloads should be
    confluent (order-independent outcomes); see the module docstring.
    """
    execu = ThreadedExecution(module, threads, config)
    ref = execu.run()
    assert ref.completed
    # Sweep failure points until a run completes before the failure fires.
    divergences: List[str] = []
    checked = 0
    point = 1
    while True:
        interrupted = execu.run(fail_after_event=point)
        if interrupted.completed:
            break
        checked += 1
        try:
            resumed = execu.recover_and_resume(interrupted.model)
        except RecoveryError as exc:
            divergences.append(f"event {point}: recovery error: {exc}")
            point += stride
            continue
        for tid in range(len(threads)):
            if sorted(resumed.outputs[tid]) != sorted(ref.outputs[tid]):
                divergences.append(
                    f"event {point}: thread {tid} output "
                    f"{resumed.outputs[tid]} != {ref.outputs[tid]}"
                )
                break
        point += stride
    return checked, divergences
