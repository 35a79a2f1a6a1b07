"""Timing primitives shared by the perf CLI and the harness engine.

Kept dependency-free so :mod:`repro.harness.engine` can reuse the same
clocks for its phase timings without import cycles.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple


class Stopwatch:
    """Context manager measuring wall-clock seconds.

    ::

        with Stopwatch() as sw:
            work()
        print(sw.seconds)
    """

    __slots__ = ("seconds", "_t0")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


class PhaseTimer:
    """Named wall-clock phases, accumulated in insertion order.

    The harness engine wraps each stage of a run (plan, classify,
    simulate, reduce) so every harness invocation doubles as a coarse
    end-to-end perf sample::

        timer = PhaseTimer()
        with timer.phase("plan"):
            plan()
        timer.seconds  # {"plan": 0.12}
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    class _Phase:
        __slots__ = ("_timer", "_name", "_t0")

        def __init__(self, timer: "PhaseTimer", name: str) -> None:
            self._timer = timer
            self._name = name

        def __enter__(self) -> None:
            self._t0 = time.perf_counter()

        def __exit__(self, *exc) -> None:
            elapsed = time.perf_counter() - self._t0
            seconds = self._timer.seconds
            seconds[self._name] = seconds.get(self._name, 0.0) + elapsed

    def phase(self, name: str) -> "PhaseTimer._Phase":
        return PhaseTimer._Phase(self, name)

    def total(self) -> float:
        return sum(self.seconds.values())

    def format(self) -> str:
        if not self.seconds:
            return ""
        parts = [f"{name} {sec:.2f}s" for name, sec in self.seconds.items()]
        return ", ".join(parts)


def best_of(fn: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """Run *fn* ``repeats`` times; return (best wall-clock, last result).

    Best-of-N is the standard defense against scheduler noise: the
    minimum observed time is the closest estimate of the code's cost.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result
