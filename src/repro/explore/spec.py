"""Declarative design-space sweep specifications.

The paper sweeps one hardware knob at a time (Figures 19-27).  A
:class:`SweepSpec` names the full cross-product instead -- scheme
catalog x PB/RBT/WPQ/WB sizes x memory technologies (NVM and CXL
devices) x workload profiles -- and expands deterministically into a
:class:`CampaignPlan` of simulation points for the harness engine.

Canonical form: ``to_dict``/``canonical_json`` are byte-stable for a
given spec (sorted keys, no floats beyond the knobs themselves), and
:meth:`SweepSpec.digest` is the sha256 of that form -- the identity a
campaign lockfile locks.

An empty knob axis means "machine default" (one configuration, the
stock value); listing values sweeps them.  Baselines are planned
per memory technology only: the persist-machinery knobs (PB/RBT/
WPQ/WB) are invisible to the no-persistence baseline scheme, exactly
as the paper's Figures 21-26 normalize every swept configuration to
one stock-machine baseline while Figure 27 re-baselines per NVM
technology.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import (
    CXL_DEVICES,
    MachineConfig,
    NVM_TECHS,
    skylake_machine,
)
from repro.arch.scheme import Scheme
from repro.harness.spec import SimPoint
from repro.schemes import baseline, capri, cwsp, ido, psp_ideal, replaycache
from repro.workloads.profiles import ALL_APPS, PROFILES

#: Named scheme factories a spec may reference.
SCHEME_FACTORIES: Dict[str, Callable[[], Scheme]] = {
    "cwsp": cwsp,
    "capri": capri,
    "replaycache": replaycache,
    "ido": ido,
    "psp-ideal": psp_ideal,
}

#: Memory technologies a spec may reference: the Section IX-M NVM
#: devices plus the Table I CXL devices (whose ``link_ns`` carries the
#: interconnect latency).
MEMORY_TECHS = {**NVM_TECHS, **CXL_DEVICES}

SPEC_VERSION = 1


@dataclass(frozen=True)
class SweepSpec:
    """One campaign's cross-product, as data."""

    name: str
    schemes: Tuple[str, ...]
    profiles: Tuple[str, ...] = ()  # () = all 37
    pb_entries: Tuple[int, ...] = ()  # () = machine default
    rbt_entries: Tuple[int, ...] = ()
    wpq_entries: Tuple[int, ...] = ()
    wb_entries: Tuple[int, ...] = ()
    nvm_techs: Tuple[str, ...] = ("PMEM",)
    n_insts: int = 2_000
    seed: int = 1
    instrument: str = "pruned"

    def validate(self) -> None:
        unknown = [s for s in self.schemes if s not in SCHEME_FACTORIES]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown}; choose from {sorted(SCHEME_FACTORIES)}"
            )
        unknown = [t for t in self.nvm_techs if t not in MEMORY_TECHS]
        if unknown:
            raise ValueError(
                f"unknown memory tech(s) {unknown}; choose from {sorted(MEMORY_TECHS)}"
            )
        unknown = [p for p in self.effective_profiles if p not in PROFILES]
        if unknown:
            raise ValueError(f"unknown profile(s) {unknown}")
        if not self.schemes:
            raise ValueError("spec sweeps no schemes")
        if self.n_insts <= 0 or self.seed < 0:
            raise ValueError("n_insts must be positive and seed non-negative")

    @property
    def effective_profiles(self) -> Tuple[str, ...]:
        return self.profiles if self.profiles else tuple(ALL_APPS)

    # -- canonical form ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"version": SPEC_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported spec version {version}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
        spec = cls(**kwargs)
        spec.validate()
        return spec

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def with_overrides(
        self, n_insts: Optional[int] = None, seed: Optional[int] = None
    ) -> "SweepSpec":
        spec = self
        if n_insts is not None:
            spec = replace(spec, n_insts=n_insts)
        if seed is not None:
            spec = replace(spec, seed=seed)
        return spec


@dataclass(frozen=True)
class Cell:
    """One hardware+scheme configuration (the frontier's unit).

    ``None`` knob values mean "machine default" -- the cell's label
    spells the resolved values so reports read unambiguously.
    """

    scheme: str
    pb: Optional[int]
    rbt: Optional[int]
    wpq: Optional[int]
    wb: Optional[int]
    nvm: str

    def machine(self) -> MachineConfig:
        overrides: Dict[str, object] = {"nvm": MEMORY_TECHS[self.nvm]}
        if self.pb is not None:
            overrides["pb_entries"] = self.pb
        if self.rbt is not None:
            overrides["rbt_entries"] = self.rbt
        if self.wpq is not None:
            overrides["wpq_entries"] = self.wpq
        if self.wb is not None:
            overrides["wb_entries"] = self.wb
        return skylake_machine(scaled=True, **overrides)

    def label(self) -> str:
        m = self.machine()
        return (
            f"{self.scheme}/pb{m.pb_entries}/rbt{m.rbt_entries}"
            f"/wpq{m.wpq_entries}/wb{m.wb_entries}/{self.nvm}"
        )

    def knobs(self) -> Dict[str, object]:
        m = self.machine()
        return {
            "scheme": self.scheme,
            "pb_entries": m.pb_entries,
            "rbt_entries": m.rbt_entries,
            "wpq_entries": m.wpq_entries,
            "wb_entries": m.wb_entries,
            "nvm": self.nvm,
        }


@dataclass
class CampaignPlan:
    """A spec expanded: cells, per-cell target points, shared baselines.

    ``points`` is the deduplicated union in deterministic order
    (baselines first, then targets cell-major/profile-minor) -- the
    order shards chunk over and the lockfile records.
    """

    spec: SweepSpec
    cells: List[Cell]
    targets: Dict[Tuple[Cell, str], SimPoint] = field(default_factory=dict)
    baselines: Dict[Tuple[str, str], SimPoint] = field(default_factory=dict)
    points: List[SimPoint] = field(default_factory=list)


def _axis(values: Tuple[int, ...]) -> Tuple[Optional[int], ...]:
    return values if values else (None,)


def expand(spec: SweepSpec) -> CampaignPlan:
    """Deterministically expand *spec* into its campaign plan."""
    spec.validate()
    plan = CampaignPlan(spec=spec, cells=[])
    apps = spec.effective_profiles

    seen: Dict[SimPoint, None] = {}
    # The normalization points: stock persist machinery, one per memory
    # tech.  The swept knobs live in hardware the baseline scheme never
    # exercises, so every cell of a tech shares its baseline run; the
    # memory technology is visible to the baseline (Figure 27).
    for nvm in spec.nvm_techs:
        for app in apps:
            machine = skylake_machine(scaled=True, nvm=MEMORY_TECHS[nvm])
            point = SimPoint(app, baseline(), machine, None, spec.n_insts, spec.seed)
            plan.baselines[(nvm, app)] = point
            seen.setdefault(point, None)

    for scheme_name in spec.schemes:
        scheme = SCHEME_FACTORIES[scheme_name]()
        # Schemes that do not persist stores run the uninstrumented
        # trace (no region boundaries to form), matching Figure 18's
        # ideal-PSP runs.
        instrument = spec.instrument if scheme.persist_stores else None
        for pb in _axis(spec.pb_entries):
            for rbt in _axis(spec.rbt_entries):
                for wpq in _axis(spec.wpq_entries):
                    for wb in _axis(spec.wb_entries):
                        for nvm in spec.nvm_techs:
                            cell = Cell(scheme_name, pb, rbt, wpq, wb, nvm)
                            plan.cells.append(cell)
                            for app in apps:
                                point = SimPoint(
                                    app,
                                    scheme,
                                    cell.machine(),
                                    instrument,
                                    spec.n_insts,
                                    spec.seed,
                                )
                                plan.targets[(cell, app)] = point
                                seen.setdefault(point, None)

    plan.points = list(seen)
    return plan


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
#: Named sweeps.  ``smoke`` is CI-sized (2 schemes x 3 PB sizes x 3
#: profiles); ``default`` is the production sweep this box runs in
#: minutes (~5.4k points); ``full`` is the complete cross-product the
#: paper never ran (~31k points over every scheme, memory tech, and
#: profile).
PRESETS: Dict[str, SweepSpec] = {
    "smoke": SweepSpec(
        name="smoke",
        schemes=("cwsp", "capri"),
        profiles=("astar", "lbm", "milc"),
        pb_entries=(20, 40, 50),
        nvm_techs=("PMEM",),
        n_insts=2_000,
    ),
    "default": SweepSpec(
        name="default",
        schemes=("cwsp", "capri", "replaycache"),
        pb_entries=(20, 40, 50),
        rbt_entries=(8, 16),
        wpq_entries=(8, 24),
        wb_entries=(16, 32),
        nvm_techs=("PMEM", "ReRAM"),
        n_insts=2_000,
    ),
    "full": SweepSpec(
        name="full",
        schemes=("cwsp", "capri", "replaycache", "ido", "psp-ideal"),
        pb_entries=(20, 50),
        rbt_entries=(8, 16, 32),
        wpq_entries=(8, 24),
        wb_entries=(16, 32),
        nvm_techs=("PMEM", "STTRAM", "ReRAM", "CXL-A", "CXL-B", "CXL-C", "CXL-D"),
        n_insts=2_000,
    ),
}


def load_spec(path: str) -> SweepSpec:
    """Load a spec from a JSON file (the ``--spec`` CLI input)."""
    with open(path) as fh:
        return SweepSpec.from_dict(json.load(fh))
