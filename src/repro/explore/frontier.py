"""Pareto frontiers over the explored design space.

Each campaign cell (one scheme x hardware configuration) is scored on
three minimized objectives:

- **gmean slowdown** over the swept profiles, normalized per cell to
  the stock-persist-machinery baseline on the same memory technology
  (the paper's aggregate);
- **hardware cost** in battery-backed/SRAM bytes of the persistence
  machinery (model below);
- **recovery latency** in cycles: expected post-crash work under the
  scheme (model below).

Hardware cost model (DESIGN.md section 9): each PB entry holds one
persist-granule payload plus an 8-byte address tag
(``persist_bytes + 8``; Capri's 64B-line redo buffer vs cWSP's 8B
entries falls out of the scheme), each RBT entry is a 32-byte region
record, each battery-backed WPQ entry a 64-byte line plus tag, each WB
entry an 8-byte word plus tag.  Scheme-level buffer overrides
(``pb_entries_override``) take precedence over the machine knob,
exactly as they do in the simulator.

Recovery latency model: a crash lands uniformly inside the current
idempotent region, so the scheme re-executes half a region on average
-- ``0.5 * insts_per_region * cycles_per_inst`` from the measured
stats.  Schemes that form no regions and persist nothing by
construction (ideal PSP: everything is already durable) recover in 0
cycles; this is the same argument the paper makes in Section VIII
("re-execution of tens of instructions").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.pareto import pareto_front
from repro.arch.metrics import SimStats
from repro.explore.spec import Cell, CampaignPlan, SCHEME_FACTORIES
from repro.harness.report import format_table, gmean


def hardware_cost_bytes(cell: Cell) -> int:
    """Battery-backed/SRAM bytes of the cell's persistence machinery."""
    scheme = SCHEME_FACTORIES[cell.scheme]()
    machine = cell.machine()
    if not scheme.persist_stores:
        return 0
    pb_entries = (
        scheme.pb_entries_override
        if scheme.pb_entries_override is not None
        else machine.pb_entries
    )
    rbt_entries = (
        scheme.rbt_entries_override
        if scheme.rbt_entries_override is not None
        else machine.rbt_entries
    )
    return (
        pb_entries * (scheme.persist_bytes + 8)
        + rbt_entries * 32
        + machine.wpq_entries * (64 + 8)
        + machine.wb_entries * (8 + 8)
    )


def recovery_latency_cycles(stats: SimStats) -> float:
    """Expected post-crash re-execution cost for one run's stats."""
    if stats.boundaries == 0 or stats.insts == 0:
        return 0.0
    cycles_per_inst = stats.cycles / stats.insts
    return 0.5 * stats.insts_per_region * cycles_per_inst


@dataclass
class FrontierEntry:
    """One scored cell."""

    cell: Cell
    gmean_slowdown: float
    hw_cost_bytes: int
    recovery_cycles: float
    pareto: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.cell.label(),
            "knobs": self.cell.knobs(),
            "gmean_slowdown": self.gmean_slowdown,
            "hw_cost_bytes": self.hw_cost_bytes,
            "recovery_cycles": self.recovery_cycles,
            "pareto": self.pareto,
        }


def score_cells(
    plan: CampaignPlan, results: Dict[object, SimStats]
) -> List[FrontierEntry]:
    """Score every cell of *plan* against the resolved *results*."""
    entries: List[FrontierEntry] = []
    for cell in plan.cells:
        slowdowns: List[float] = []
        recoveries: List[float] = []
        for app in plan.spec.effective_profiles:
            target = results[plan.targets[(cell, app)]]
            base = results[plan.baselines[(cell.nvm, app)]]
            slowdowns.append(target.cycles / base.cycles)
            recoveries.append(recovery_latency_cycles(target))
        entries.append(
            FrontierEntry(
                cell=cell,
                gmean_slowdown=gmean(slowdowns),
                hw_cost_bytes=hardware_cost_bytes(cell),
                recovery_cycles=sum(recoveries) / len(recoveries),
            )
        )
    flags = pareto_front(
        [
            (e.gmean_slowdown, float(e.hw_cost_bytes), e.recovery_cycles)
            for e in entries
        ]
    )
    for entry, flag in zip(entries, flags):
        entry.pareto = flag
    return entries


def frontier_dict(plan: CampaignPlan, entries: List[FrontierEntry]) -> Dict[str, object]:
    """The frontier artifact (``frontier.json``)."""
    optimal = [e for e in entries if e.pareto]
    return {
        "campaign": plan.spec.name,
        "spec_digest": plan.spec.digest(),
        "objectives": ["gmean_slowdown", "hw_cost_bytes", "recovery_cycles"],
        "n_cells": len(entries),
        "n_pareto": len(optimal),
        "cells": [e.to_dict() for e in entries],
        "pareto": [e.cell.label() for e in _sorted_front(optimal)],
    }


def _sorted_front(entries: List[FrontierEntry]) -> List[FrontierEntry]:
    return sorted(entries, key=lambda e: (e.gmean_slowdown, e.hw_cost_bytes, e.cell.label()))


def frontier_markdown(plan: CampaignPlan, entries: List[FrontierEntry]) -> str:
    """Human frontier report (``frontier.md`` and the EXPERIMENTS section)."""
    optimal = _sorted_front([e for e in entries if e.pareto])
    spec = plan.spec
    lines = [
        f"## Design-space exploration: {spec.name}",
        "",
        f"{len(plan.points)} simulation points "
        f"({len(plan.cells)} configurations x {len(spec.effective_profiles)} "
        f"profiles + {len(plan.baselines)} shared baselines), "
        f"n_insts={spec.n_insts}, seed={spec.seed}, "
        f"spec digest `{spec.digest()}`.",
        "",
        f"Pareto-optimal configurations ({len(optimal)} of {len(entries)} cells) "
        "on (gmean slowdown, hardware cost, recovery latency), all minimized:",
        "",
        "```",
        format_table(
            ["configuration", "gmean slowdown", "hw bytes", "recovery cycles"],
            [
                [e.cell.label(), e.gmean_slowdown, e.hw_cost_bytes, e.recovery_cycles]
                for e in optimal
            ],
        ),
        "```",
    ]
    return "\n".join(lines) + "\n"


def save_frontier(path, plan: CampaignPlan, entries: List[FrontierEntry]) -> None:
    path.write_text(
        json.dumps(frontier_dict(plan, entries), indent=1, sort_keys=True) + "\n"
    )
