"""Power-failure injection: run a program under the functional
persistence model and cut power after a chosen committed instruction.

:func:`drive` is the one place that counts committed events and cuts
power: the single-core runs here, the nested-crash epochs of
:mod:`repro.faults.injectors` and the round-robin threads of
:class:`repro.recovery.multithread.ThreadedExecution` all go through it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from repro.ir.function import Module
from repro.ir.interpreter import EventHook, Interpreter, MachineState, TraceEvent
from repro.recovery.model import FunctionalPersistence, PersistenceConfig, PowerFailure

R = TypeVar("R")


def drive(
    model: FunctionalPersistence,
    run: Callable[[EventHook], R],
    cut: Optional[int] = None,
    observe: Optional[Callable[[TraceEvent, int], None]] = None,
) -> Tuple[bool, int, Optional[R]]:
    """Run ``run(on_event)`` under *model*, cutting power after *cut*
    committed events (``None`` = never).

    ``on_event`` feeds each event to the model, then counts it; the cut
    fires once the count reaches *cut* (so a cut of 0 or less fires
    after the first event -- callers that model a cut during recovery,
    before anything commits, handle 0 themselves).  Only events that go
    through ``on_event`` count: a caller's ``on_boundary`` hook runs
    before its event is counted, and events the caller feeds to the
    model directly (argument spills ahead of the counter) do not count.
    ``observe(event, count)`` sees every counted event before the cut
    check.

    The model is finished inside the cut, so an armed fault hook can
    still fire on the final drain; the hook is disarmed on every exit.
    Returns ``(completed, events, result)``; ``result`` is None after a
    cut -- the volatile state died with the power.
    """
    count = 0

    def on_event(ev: TraceEvent) -> None:
        nonlocal count
        model.on_event(ev)
        count += 1
        if observe is not None:
            observe(ev, count)
        if cut is not None and count >= cut:
            raise PowerFailure()

    try:
        result = run(on_event)
        model.finish()
    except PowerFailure:
        return False, count, None
    finally:
        model.fault_hook = None
    return True, count, result


def run_with_failure(
    module: Module,
    cut: Optional[int],
    entry: str = "main",
    args: Tuple[int, ...] = (),
    config: Optional[PersistenceConfig] = None,
    max_steps: int = 10_000_000,
    spill_args: bool = True,
    fault_hook=None,
) -> Tuple[FunctionalPersistence, bool, Optional[MachineState]]:
    """Execute under the persistence model, cutting power after the
    *cut*-th committed event (1-based; ``None`` runs to completion).

    The entry's argument spills are committed events and count toward
    the cut.  *fault_hook* (see :data:`repro.recovery.model.FaultHook`)
    stays armed through the final drain.  Returns ``(model, completed,
    final_state)``; ``final_state`` is None when the cut fired first.
    """
    model = FunctionalPersistence(module, config)
    model.fault_hook = fault_hook
    interp = Interpreter(module, spill_args=spill_args)
    completed, _events, final = drive(
        model,
        lambda on_event: interp.run(entry, args, max_steps, on_event, model.on_boundary),
        cut,
    )
    return model, completed, final


def sampled_points(total: int, stride: int, first: int = 1) -> List[int]:
    """Stride-sampled points over [first, total], always including total."""
    if total < first:
        return []
    points = set(range(first, total + 1, max(1, stride)))
    points.add(total)
    return sorted(points)
