"""Declarative experiment descriptions.

An experiment is a grid of simulation *points* plus a pure reduction.
The grid is never written down twice: an :class:`ExperimentSpec`'s
``build`` function is an ordinary reducer (the old figure-function
body) written against a :class:`Resolver`; planning runs it once with a
recording resolver that hands back phony stats and collects every
requested point, execution resolves the deduplicated union of points
(see :mod:`repro.harness.engine`), and the reducer runs again against
the real results.

Points are frozen, hashable dataclasses, so deduplication across
experiments is plain set arithmetic -- every normalized-slowdown figure
shares its baseline points -- and their canonical JSON form keys the
engine's on-disk result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.config import MachineConfig
from repro.arch.metrics import SimStats
from repro.arch.scheme import Scheme
from repro.harness.report import FigureResult
from repro.schemes import baseline


@dataclass(frozen=True)
class SimPoint:
    """One single-core simulation: the unit of planning and caching."""

    app: str
    scheme: Scheme
    machine: MachineConfig
    instrument: Optional[str]
    n_insts: int
    seed: int


@dataclass(frozen=True)
class MulticorePoint:
    """One multi-core simulation; ``apps[i]`` runs on core *i*.

    ``prime_apps`` are the profiles whose working sets warm the shared
    hierarchy (the full workload mix, even when fewer traces run).
    Core *i*'s trace is seeded with ``seed + i``.
    """

    apps: Tuple[str, ...]
    prime_apps: Tuple[str, ...]
    scheme: Scheme
    machine: MachineConfig
    instrument: Optional[str]
    n_insts: int
    seed: int

    @property
    def n_cores(self) -> int:
        return len(self.apps)


Point = Union[SimPoint, MulticorePoint]


@dataclass(frozen=True)
class PlanContext:
    """Sweep-wide knobs every reducer sees (CLI ``--n-insts``/``--seed``)."""

    n_insts: int
    seed: int = 1


class ShapeError(AssertionError):
    """An experiment's result violated its expected-shape assertions."""


class _PhonyStats:
    """Stand-in stats for the planning pass: every metric reads 1.0."""

    __slots__ = ()

    def __getattr__(self, name: str) -> float:
        return 1.0


_PHONY = _PhonyStats()


class Resolver:
    """What a reducer may ask for: stats, slowdowns, and profiles.

    Subclasses implement :meth:`_resolve`.  The resolver also records
    every distinct scheme it was asked about, which the report layer
    turns into artifact provenance via :meth:`Scheme.describe`.
    """

    def __init__(self, ctx: PlanContext) -> None:
        self.ctx = ctx
        self.schemes_seen: Dict[str, Scheme] = {}

    # -- point construction -------------------------------------------
    def _note_scheme(self, scheme: Scheme) -> None:
        self.schemes_seen.setdefault(scheme.name, scheme)

    def stats(
        self,
        app: str,
        scheme: Scheme,
        machine: MachineConfig,
        instrument: Optional[str] = "pruned",
    ) -> SimStats:
        self._note_scheme(scheme)
        return self._resolve(
            SimPoint(app, scheme, machine, instrument, self.ctx.n_insts, self.ctx.seed)
        )

    def slowdown(
        self,
        app: str,
        scheme: Scheme,
        machine: MachineConfig,
        instrument: Optional[str] = "pruned",
        baseline_scheme: Optional[Scheme] = None,
        baseline_machine: Optional[MachineConfig] = None,
    ) -> float:
        """Normalized slowdown vs. the uninstrumented baseline run.

        The baseline runs the *original* (uninstrumented) trace on
        ``baseline_machine`` (default: the same machine) with
        ``baseline_scheme`` (default: no persistence) -- exactly the
        paper's "original program on the original hardware platform".
        Shared baselines across figures resolve to the same point.
        """
        ref = self.stats(
            app,
            baseline_scheme if baseline_scheme is not None else baseline(),
            baseline_machine if baseline_machine is not None else machine,
            instrument=None,
        )
        target = self.stats(app, scheme, machine, instrument)
        return target.cycles / ref.cycles

    def multicore(
        self,
        apps: Sequence[str],
        scheme: Scheme,
        machine: MachineConfig,
        instrument: Optional[str] = None,
        prime_apps: Optional[Sequence[str]] = None,
    ) -> SimStats:
        """Merged stats of one multi-core run (cycles = makespan)."""
        self._note_scheme(scheme)
        return self._resolve(
            MulticorePoint(
                tuple(apps),
                tuple(prime_apps if prime_apps is not None else apps),
                scheme,
                machine,
                instrument,
                self.ctx.n_insts,
                self.ctx.seed,
            )
        )

    def _resolve(self, point: Point) -> SimStats:
        raise NotImplementedError


class RecordingResolver(Resolver):
    """Planning pass: collects points, answers with phony stats."""

    def __init__(self, ctx: PlanContext) -> None:
        super().__init__(ctx)
        #: Insertion-ordered for deterministic planning output.
        self.points: Dict[Point, None] = {}

    def _resolve(self, point: Point) -> SimStats:
        self.points.setdefault(point, None)
        return _PHONY  # type: ignore[return-value]


class ResolvedResolver(Resolver):
    """Reduction pass: answers from the engine's resolved results."""

    def __init__(self, ctx: PlanContext, results: Dict[Point, SimStats]) -> None:
        super().__init__(ctx)
        self._results = results

    def _resolve(self, point: Point) -> SimStats:
        try:
            return self._results[point]
        except KeyError:
            raise RuntimeError(
                "reducer requested a point that was not planned (the build "
                f"function is not deterministic across passes): {point}"
            ) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure/table as data: a reducer plus its contract.

    ``build(resolver, ctx)`` constructs the :class:`FigureResult`; it
    must be deterministic and request points only through the resolver.
    ``check(result)`` holds the paper claims the experiment makes
    (DESIGN.md section 4) and raises :class:`ShapeError` -- the engine
    runs it after every reduction, and CI fails on violations.  The
    claims are the paper's shape at ``n_insts >= 2000``; shorter traces
    are too noisy for some of them (fig18's PSP gap and fig23's latency
    flatness miss on some seeds at 1000).
    ``simulates=False`` marks registry entries that never touch the
    timing simulator (config tables, the recovery checker, the fault
    campaign); their build runs once, with no planning pass.
    """

    name: str
    title: str
    build: Callable[[Resolver, PlanContext], FigureResult]
    default_n_insts: int = 50_000
    simulates: bool = True
    check: Optional[Callable[[FigureResult], None]] = None

    def plan(self, ctx: PlanContext) -> List[Point]:
        """The deduplicated points this experiment needs under *ctx*."""
        if not self.simulates:
            return []
        recorder = RecordingResolver(ctx)
        self.build(recorder, ctx)
        return list(recorder.points)


def validate_result(spec: ExperimentSpec, result: FigureResult) -> None:
    """Structural checks every experiment must pass, then the spec's own."""
    if not result.rows:
        raise ShapeError(f"{spec.name}: no rows produced")
    for row in result.rows:
        if len(row) != len(result.headers):
            raise ShapeError(
                f"{spec.name}: row {row!r} does not match headers {result.headers}"
            )
        for cell in row[1:]:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise ShapeError(f"{spec.name}: non-finite value in row {row!r}")
    for value in result.summary.values():
        if isinstance(value, float) and not math.isfinite(value):
            raise ShapeError(f"{spec.name}: non-finite summary value")
    if spec.check is not None:
        try:
            spec.check(result)
        except ShapeError:
            raise
        except AssertionError as exc:
            raise ShapeError(f"{spec.name}: expected shape violated: {exc}") from exc
