"""Result containers and table formatting for the figure harness,
plus the consumer for fault-campaign JSON artifacts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


def gmean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for slowdowns)."""
    vals = list(values)
    if not vals:
        raise ValueError("gmean of empty sequence")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Plain-text table with right-aligned numeric columns."""
    str_rows = [
        [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(
                c.rjust(w) if _numeric(c) else c.ljust(w)
                for c, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def _numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


@dataclass
class FigureResult:
    """One regenerated experiment: rows plus the claim it should show."""

    experiment: str
    description: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    #: Key aggregates, e.g. {"all_gmean": 1.058}.
    summary: Dict[str, float] = field(default_factory=dict)
    #: What the paper reports for the same experiment, for EXPERIMENTS.md.
    paper_says: str = ""

    def add(self, *row) -> None:
        self.rows.append(list(row))

    def format_table(self) -> str:
        table = format_table(self.headers, self.rows, title=f"{self.experiment}: {self.description}")
        if self.summary:
            items = "  ".join(f"{k}={v:.3f}" for k, v in self.summary.items())
            table += f"\n{items}"
        return table

    def column(self, name: str) -> List:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        """CSV form (for external plotting)."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()


# ----------------------------------------------------------------------
# Fault-campaign artifacts (produced by ``python -m repro.faults``)
# ----------------------------------------------------------------------
def load_campaign(path: str) -> Dict:
    """Read a campaign JSON artifact from disk."""
    with open(path) as fh:
        return json.load(fh)


def campaign_cells(artifact: Dict) -> Iterator[Tuple[Tuple[str, ...], List[int]]]:
    """Walk a campaign artifact's trial cells in sorted order.

    Yields each cell's path -- ``(kernel, strategy)`` for a single-core
    campaign, ``(kernel, scheme, strategy)`` for a multicore one -- with
    its ``[trials, ok, degraded, divergent]`` counts (``ok`` includes
    faults that never fired, ``divergent`` includes errors).
    """

    def walk(node: Dict, path: Tuple[str, ...]):
        if "trials" in node:
            yield path, [
                node.get("trials", 0),
                node.get("ok", 0) + node.get("completed", 0),
                node.get("degraded", 0),
                node.get("divergent", 0) + node.get("error", 0),
            ]
            return
        for key in sorted(node):
            yield from walk(node[key], path + (key,))

    yield from walk(artifact.get("per_kernel", {}), ())


def campaign_result(artifact: Dict) -> FigureResult:
    """Render a fault-campaign artifact as a harness FigureResult.

    One row per cell: (kernel, strategy) for a single-core campaign;
    (kernel, scheme, strategy) for a multicore one, carrying that
    kernel/scheme's delay-free wait account (drain opportunities burned
    per sync point in a clean run) next to the trial verdicts.  The
    summary carries the campaign totals, and any divergence is surfaced
    in the description so a glance at the table shows whether the
    persistence guarantee held under the adversary.
    """
    meta = artifact.get("meta", {})
    totals = artifact.get("totals", {})
    n_div = totals.get("divergent", 0) + totals.get("error", 0)
    status = "all consistent-or-degraded" if n_div == 0 else f"{n_div} DIVERGENCES"
    verdicts = ["trials", "ok", "degraded", "divergent"]
    multicore = meta.get("mode") == "multicore"
    if multicore:
        result = FigureResult(
            "FaultsMT",
            f"Multicore fault campaign (seed {meta.get('seed')}): {status}",
            ["kernel", "scheme", "strategy", *verdicts, "wait/sync"],
            paper_says=(
                "Section VIII argues DRF threads recover independently; the "
                "campaign cuts power at atomics, boundaries, and during other "
                "threads' recovery, across interleavings"
            ),
        )
    else:
        result = FigureResult(
            "Faults",
            f"Adversarial fault campaign (seed {meta.get('seed')}): {status}",
            ["kernel", "strategy", *verdicts],
            paper_says=(
                "paper never tests recovery; campaign covers nested crashes, "
                "torn persists, corrupted logs/checkpoints, boundary states"
            ),
        )
    delay_free = artifact.get("delay_free", {})
    for path, counts in campaign_cells(artifact):
        if multicore:
            kernel, scheme, _strategy = path
            wait = delay_free.get(kernel, {}).get(scheme, {}).get("wait_per_sync", 0.0)
            counts = counts + [float(wait)]
        result.add(*path, *counts)
    result.summary = {
        "trials": float(totals.get("trials", 0)),
        "divergent": float(n_div),
        "degraded": float(totals.get("degraded", 0)),
    }
    return result
