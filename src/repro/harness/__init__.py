"""Experiment harness: regenerates every table and figure of the paper.

``repro.harness.figures.SPECS`` describes each experiment (``fig01``
.. ``fig27``, ``tab01``, ``hw``, ``multicore``, ``recovery``, ...) as a
declarative :class:`~repro.harness.spec.ExperimentSpec` -- a point grid
plus a pure reducer plus the paper claims its result must show.  The
:class:`~repro.harness.engine.Engine` dedupes points across
experiments, fans cache misses over a process pool, and serves warm
reruns from a content-addressed on-disk cache.  Run it all from the
CLI::

    python -m repro.harness                    # everything, cached
    python -m repro.harness fig13 fig14 --jobs 4
"""

from repro.harness.engine import Engine, NullCache, ResultCache
from repro.harness.report import FigureResult, format_table, gmean
from repro.harness.spec import ExperimentSpec, PlanContext, ShapeError, SimPoint

__all__ = [
    "Engine",
    "ExperimentSpec",
    "FigureResult",
    "NullCache",
    "PlanContext",
    "ResultCache",
    "ShapeError",
    "SimPoint",
    "format_table",
    "gmean",
]
