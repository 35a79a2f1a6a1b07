"""Sharded, resumable campaign execution with locked provenance.

A campaign expands its :class:`~repro.explore.spec.SweepSpec` into the
deterministic plan-order point list, chunks it into fixed-size shards,
and runs each shard through the harness engine's content-addressed
cache and worker pool (:func:`repro.harness.engine.resolve_points`).
Every completed shard lands on disk as a mergeable result file before
the next one starts, so a killed campaign resumes by recomputing only
the missing shards -- and a resumed campaign's spliced metric set and
lockfile are byte-identical to an uninterrupted run's (pinned by
tests/test_explore_campaign.py).

``run_frozen`` replays a campaign from its lockfile and fails loudly
on any divergence: code salt, environment, point keys, or result
bytes.  With a warm cache the replay does zero simulations, which CI
asserts via ``--expect-cached``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.metrics import SimStats
from repro.explore.frontier import frontier_markdown, save_frontier, score_cells
from repro.explore.lockfile import (
    Lockfile,
    LockfileDivergence,
    check_frozen_preconditions,
    environment_provenance,
    results_digest,
)
from repro.explore.spec import CampaignPlan, SweepSpec, expand
from repro.harness.engine import (
    RunInfo,
    _write_atomic,
    code_salt,
    point_cache_key,
    resolve_points,
    salt_recipe,
)
from repro.harness.spec import SimPoint

SHARD_VERSION = 1
DEFAULT_SHARD_SIZE = 256


class CampaignError(Exception):
    """A campaign could not run (stale shards, bad layout)."""


@dataclasses.dataclass
class CampaignCounters:
    """What a campaign run actually did."""

    planned: int = 0
    simulated: int = 0
    #: Simulator runs: fewer than ``simulated`` when runs served
    #: capacity siblings.
    runs: int = 0
    cache_hits: int = 0
    resumed_points: int = 0
    shards_total: int = 0
    shards_resumed: int = 0

    def count(self, info: RunInfo) -> None:
        """Add one shard's resolve."""
        self.simulated += info.simulated
        self.runs += info.runs
        self.cache_hits += info.cached

    @property
    def served_without_simulation(self) -> int:
        return self.cache_hits + self.resumed_points

    def describe(self) -> str:
        pct = (
            100.0 * self.served_without_simulation / self.planned
            if self.planned
            else 100.0
        )
        return (
            f"{self.planned} points in {self.shards_total} shards: "
            f"{self.resumed_points} resumed from {self.shards_resumed} shard files, "
            f"{self.cache_hits} cache hits, {self.simulated} simulated in "
            f"{self.runs} runs (cache hits: {pct:.0f}%)"
        )


@dataclasses.dataclass
class CampaignResult:
    plan: CampaignPlan
    lockfile: Lockfile
    counters: CampaignCounters
    results: Dict[SimPoint, SimStats]
    entries: List  # scored FrontierEntry per cell, plan order
    campaign_dir: Optional[Path]
    experiments_section: str


def _shard_path(shards_dir: Path, index: int) -> Path:
    return shards_dir / f"shard-{index:04d}.json"


def _chunk(tasks: List[Tuple[str, SimPoint]], size: int) -> List[List[Tuple[str, SimPoint]]]:
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


def _load_shard(
    path: Path, spec_digest: str, salt: str, expected_keys: List[str]
) -> Optional[Dict[str, Dict]]:
    """A completed shard's ``{key: stats_dict}``, validated against the plan.

    Returns ``None`` for unreadable/torn files (recompute); raises
    :class:`CampaignError` for readable files that belong to a
    *different* plan or code version -- silent recompute there would
    let a stale shard masquerade as resumable state.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if data.get("version") != SHARD_VERSION:
        return None
    if data.get("spec_digest") != spec_digest or data.get("code_salt") != salt:
        raise CampaignError(
            f"stale shard {path}: it records spec_digest="
            f"{data.get('spec_digest')}/salt={data.get('code_salt')}, the "
            f"campaign plans {spec_digest}/{salt}; delete the shard directory "
            "to recompute"
        )
    if data.get("keys") != expected_keys:
        raise CampaignError(
            f"shard {path} covers different points than the plan chunks "
            "at this index; delete the shard directory to recompute"
        )
    results = data.get("results", {})
    if set(results) != set(expected_keys):
        return None  # torn write: recompute
    return results


def _write_shard(
    path: Path,
    index: int,
    spec: SweepSpec,
    salt: str,
    keys: List[str],
    results: Dict[str, Dict],
) -> None:
    payload = {
        "version": SHARD_VERSION,
        "campaign": spec.name,
        "spec_digest": spec.digest(),
        "code_salt": salt,
        "shard": index,
        "keys": keys,
        "results": results,
    }
    # Atomic, through a pid-suffixed temp file: a killed campaign never
    # leaves a torn shard, and two writers in one directory (a serve
    # daemon plus a manual campaign) never cross-publish.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    _write_atomic(path, "w", lambda fh: fh.write(text))


def _plan_tasks(plan: CampaignPlan, salt: str) -> List[Tuple[str, SimPoint]]:
    return [(point_cache_key(p, salt), p) for p in plan.points]


def run_campaign(
    spec: SweepSpec,
    campaign_dir: Path,
    cache,
    jobs: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    progress: Optional[Callable[[str], None]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> CampaignResult:
    """Run (or resume) the campaign for *spec* into *campaign_dir*.

    Writes ``shards/shard-NNNN.json`` as each shard completes,
    then ``lockfile.json``, ``frontier.json``, ``frontier.md``, and
    ``experiments-section.md``.  *meta* lands in the lockfile's
    unlocked ``meta`` block (e.g. the live-server provenance recorded
    by ``python -m repro.explore --live-server``).
    """
    say = progress if progress is not None else lambda _msg: None
    spec.validate()
    plan = expand(spec)
    salt = code_salt(scans=cache.scans)
    tasks = _plan_tasks(plan, salt)
    shards = _chunk(tasks, shard_size)
    shards_dir = Path(campaign_dir) / "shards"

    counters = CampaignCounters(planned=len(tasks), shards_total=len(shards))
    say(
        f"campaign {spec.name}: {len(plan.cells)} cells, {len(tasks)} points, "
        f"{len(shards)} shards of <= {shard_size} (spec {spec.digest()}, salt {salt})"
    )

    results: Dict[SimPoint, SimStats] = {}
    by_key: Dict[str, Dict] = {}
    for index, shard_tasks in enumerate(shards):
        keys = [key for key, _ in shard_tasks]
        path = _shard_path(shards_dir, index)
        loaded = (
            _load_shard(path, spec.digest(), salt, keys) if path.exists() else None
        )
        if loaded is not None:
            counters.shards_resumed += 1
            counters.resumed_points += len(shard_tasks)
            for (key, point) in shard_tasks:
                stats = SimStats.from_dict(loaded[key])
                results[point] = stats
                by_key[key] = loaded[key]
            continue
        resolved, info = resolve_points(shard_tasks, cache, jobs=jobs)
        counters.count(info)
        shard_results = {}
        for key, point in shard_tasks:
            stats = resolved[point]
            results[point] = stats
            shard_results[key] = stats.to_dict()
            by_key[key] = shard_results[key]
        _write_shard(path, index, spec, salt, keys, shard_results)
        say(f"shard {index + 1}/{len(shards)}: {info.describe()}")

    ordered = [{"key": key, "stats": by_key[key]} for key, _ in tasks]
    lock = Lockfile(
        spec=spec,
        code_salt=salt,
        salt_recipe=salt_recipe(),
        environment=environment_provenance(),
        point_keys=[key for key, _ in tasks],
        shard_size=shard_size,
        results_digest=results_digest(ordered),
        meta=meta if meta is not None else {},
    )

    entries = score_cells(plan, results)
    section = frontier_markdown(plan, entries)

    campaign_dir = Path(campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    lock.save(campaign_dir / "lockfile.json")
    save_frontier(campaign_dir / "frontier.json", plan, entries)
    (campaign_dir / "frontier.md").write_text(section)
    (campaign_dir / "experiments-section.md").write_text(section)

    say(f"plan: {counters.describe()}")
    say(
        f"locked: {len(tasks)} point keys, results digest "
        f"{lock.results_digest[:16]}... -> {campaign_dir / 'lockfile.json'}"
    )
    return CampaignResult(
        plan=plan,
        lockfile=lock,
        counters=counters,
        results=results,
        entries=entries,
        campaign_dir=campaign_dir,
        experiments_section=section,
    )


def run_frozen(
    lockfile_path: Path,
    cache,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignCounters:
    """Replay the campaign in *lockfile_path* and verify byte-identity.

    Raises :class:`LockfileDivergence` naming exactly what drifted:
    code salt (with the changed modules), environment, the point-key
    list, or the result bytes (with the first divergent points, diffed
    against the original shard files when they still sit next to the
    lockfile).  A warm cache makes the replay simulation-free.
    """
    say = progress if progress is not None else lambda _msg: None
    lockfile_path = Path(lockfile_path)
    lock = Lockfile.load(lockfile_path)
    salt = code_salt(scans=cache.scans)
    check_frozen_preconditions(lock, salt, salt_recipe())

    plan = expand(lock.spec)
    tasks = _plan_tasks(plan, salt)
    keys = [key for key, _ in tasks]
    if keys != lock.point_keys:
        manifest = set(lock.point_keys)
        planned = set(keys)
        raise LockfileDivergence(
            "point keys diverged from the manifest: "
            f"{len(planned - manifest)} new, {len(manifest - planned)} missing, "
            f"order {'differs' if planned == manifest else 'n/a'} "
            f"(planned {len(keys)} vs locked {len(lock.point_keys)})"
        )
    say(
        f"frozen {lock.spec.name}: manifest {lock.spec.digest()} / salt {salt}, "
        f"{len(tasks)} points match; replaying"
    )

    counters = CampaignCounters(
        planned=len(tasks),
        shards_total=(len(tasks) + lock.shard_size - 1) // lock.shard_size,
    )
    results: Dict[SimPoint, SimStats] = {}
    for shard_tasks in _chunk(tasks, lock.shard_size):
        resolved, info = resolve_points(shard_tasks, cache, jobs=jobs)
        counters.count(info)
        results.update(resolved)

    ordered = [
        {"key": key, "stats": results[point].to_dict()} for key, point in tasks
    ]
    digest = results_digest(ordered)
    if digest != lock.results_digest:
        divergent = _diff_against_shards(lockfile_path.parent, lock, ordered)
        detail = (
            f"; divergent points: {divergent[:10]}"
            if divergent
            else " (original shard files unavailable for a per-point diff)"
        )
        raise LockfileDivergence(
            f"results diverged from the manifest: digest {lock.results_digest} "
            f"-> {digest}{detail}"
        )
    say(f"frozen: {counters.describe()}")
    say(
        f"frozen: verified byte-identical ({len(tasks)} points, "
        f"results digest {digest[:16]}...)"
    )
    return counters


def _diff_against_shards(
    campaign_dir: Path, lock: Lockfile, ordered: List[Dict]
) -> List[str]:
    """Cache keys whose replayed stats differ from the recorded shards."""
    shards_dir = campaign_dir / "shards"
    if not shards_dir.is_dir():
        return []
    recorded: Dict[str, Dict] = {}
    for path in sorted(shards_dir.glob("shard-*.json")):
        try:
            recorded.update(json.loads(path.read_text()).get("results", {}))
        except (OSError, ValueError):
            continue
    return [
        entry["key"]
        for entry in ordered
        if entry["key"] in recorded and recorded[entry["key"]] != entry["stats"]
    ]
