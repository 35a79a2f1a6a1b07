"""Measured performance layer: benchmarks, timers, and the CI gate.

``python -m repro.perf`` times named micro- and end-to-end benchmarks
(events/sec through ``TimingSimulator.run``, queue ops/sec, warm vs.
cold harness wall-clock), writes a JSON document with git SHA and
config provenance (``--out``), and with ``--compare SRC --max-regress
PCT`` gates this tree against another tree's ``src/`` in paired runs.

Only :mod:`repro.perf.timers` is imported eagerly -- it is dependency-
free, so the harness engine can reuse the same clocks for its phase
timings without import cycles.
"""

from repro.perf.timers import PhaseTimer, Stopwatch, best_of

__all__ = ["PhaseTimer", "Stopwatch", "best_of"]
