"""Command-line front end for design-space campaigns.

::

    python -m repro.explore --preset smoke                 # CI-sized sweep
    python -m repro.explore --preset default --jobs 4      # ~5.4k points
    python -m repro.explore --spec sweep.json              # custom spec
    python -m repro.explore --frozen campaigns/default/lockfile.json
    python -m repro.explore --frozen LOCK --expect-cached  # CI warm replay
    python -m repro.explore --preset smoke --update-experiments
    python -m repro.explore --preset smoke --live-server serve-out
    python -m repro.explore --list-presets

A campaign writes ``lockfile.json``, per-shard result files,
``frontier.json``/``frontier.md``, and an EXPERIMENTS.md section into
its campaign directory (default ``campaigns/<name>/``).  Re-running a
killed campaign resumes from its completed shards; ``--frozen``
replays a lockfile and fails on any divergence from the manifest.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.explore.campaign import (
    DEFAULT_SHARD_SIZE,
    CampaignError,
    run_campaign,
    run_frozen,
)
from repro.explore.lockfile import LockfileDivergence
from repro.explore.spec import PRESETS, load_spec
from repro.harness.engine import CACHE_DIR, NullCache, ResultCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Design-space exploration campaigns with locked provenance.",
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--preset", choices=sorted(PRESETS), help="a named sweep (see --list-presets)"
    )
    what.add_argument(
        "--spec", metavar="FILE.json", help="sweep specification file"
    )
    what.add_argument(
        "--frozen", metavar="LOCKFILE",
        help="replay the campaign in LOCKFILE and fail on any divergence "
        "from its manifest",
    )
    parser.add_argument(
        "--campaign-dir", default=None, metavar="DIR",
        help="campaign output directory (default: campaigns/<name>/)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache misses (default: 1)",
    )
    parser.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE, metavar="K",
        help=f"points per shard file (default: {DEFAULT_SHARD_SIZE})",
    )
    parser.add_argument(
        "--cache-dir", default=CACHE_DIR, metavar="DIR",
        help=f"content-addressed result cache (default: {CACHE_DIR}, "
        "shared with python -m repro.harness)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--live-server", default=None, metavar="DIR",
        help="run against a serve daemon's cache: read DIR/status.json "
        "(written by python -m repro.harness serve), verify its code salt "
        "matches this checkout, and share its result cache so the campaign "
        "reuses every point the daemon keeps warm",
    )
    parser.add_argument(
        "--n-insts", type=int, default=None, metavar="N",
        help="override the spec's trace length",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="override the spec's trace seed",
    )
    parser.add_argument(
        "--expect-cached", action="store_true",
        help="fail if any point had to be simulated (CI warm-cache assertion)",
    )
    parser.add_argument(
        "--update-experiments", nargs="?", const="EXPERIMENTS.md", default=None,
        metavar="FILE", help="splice the campaign's frontier section into FILE "
        "(default: EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list presets and exit"
    )
    return parser


def _list_presets() -> None:
    from repro.explore.spec import expand

    width = max(len(name) for name in PRESETS)
    for name in sorted(PRESETS):
        spec = PRESETS[name]
        plan = expand(spec)
        print(
            f"{name.ljust(width)}  {len(plan.cells)} cells x "
            f"{len(spec.effective_profiles)} profiles = {len(plan.points)} points "
            f"(n_insts={spec.n_insts})"
        )


def _live_server_status(out_dir: str) -> dict:
    """Load and vet a serve daemon's status.json for cache sharing.

    The campaign only piggybacks on the daemon's cache when both sides
    agree on the dependency-sliced code salt; otherwise the campaign
    would silently cold-start (different keys) or, worse, a stale
    status file could point at results from another code version.
    """
    import json

    from repro.harness.engine import code_salt

    path = Path(out_dir) / "status.json"
    try:
        status = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"--live-server: no status.json under {out_dir} -- is "
            "`python -m repro.harness serve` running with --out there?"
        )
    ours = code_salt()
    if status.get("salt") != ours:
        raise SystemExit(
            f"--live-server: the daemon serves salt {status.get('salt')} but "
            f"this checkout computes {ours}; the server has not caught up "
            "with the current code (or runs different code) -- refusing to "
            "mix caches"
        )
    print(
        f"live server: generation {status.get('generation')} at salt {ours}, "
        f"sharing cache {status.get('cache_dir')}",
        flush=True,
    )
    return status


def main(argv: Optional[List[str]] = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    if args.list_presets:
        _list_presets()
        return

    meta = None
    if args.live_server:
        if args.no_cache:
            raise SystemExit("--live-server and --no-cache are contradictory")
        status = _live_server_status(args.live_server)
        args.cache_dir = status["cache_dir"]
        meta = {
            "live_server": {
                "out_dir": status["out_dir"],
                "generation": status["generation"],
                "salt": status["salt"],
            }
        }

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    say = lambda msg: print(msg, flush=True)  # noqa: E731
    t0 = time.time()

    if args.frozen:
        try:
            counters = run_frozen(args.frozen, cache, jobs=args.jobs, progress=say)
        except (LockfileDivergence, CampaignError) as exc:
            raise SystemExit(f"FROZEN VERIFICATION FAILED: {exc}")
        if args.expect_cached and counters.simulated:
            raise SystemExit(
                f"--expect-cached: {counters.simulated} of {counters.planned} "
                "points had to be simulated (cold cache or invalidated salt)"
            )
        print(f"frozen replay ok in {time.time() - t0:.1f}s", flush=True)
        return

    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = PRESETS[args.preset or "default"]
    spec = spec.with_overrides(n_insts=args.n_insts, seed=args.seed)
    campaign_dir = Path(
        args.campaign_dir if args.campaign_dir else f"campaigns/{spec.name}"
    )

    try:
        result = run_campaign(
            spec,
            campaign_dir,
            cache,
            jobs=args.jobs,
            shard_size=args.shard_size,
            progress=say,
            meta=meta,
        )
    except CampaignError as exc:
        raise SystemExit(f"CAMPAIGN FAILED: {exc}")
    if args.expect_cached and result.counters.simulated:
        raise SystemExit(
            f"--expect-cached: {result.counters.simulated} of "
            f"{result.counters.planned} points had to be simulated"
        )

    if args.update_experiments:
        from repro.harness.experiments_md import splice_section

        path = Path(args.update_experiments)
        document = path.read_text() if path.exists() else ""
        path.write_text(
            splice_section(
                document, f"explore-{spec.name}", result.experiments_section
            )
        )
        print(f"spliced frontier section into {path}", flush=True)

    optimal = [e for e in result.entries if e.pareto]
    print(
        f"\n{result.counters.describe()}\n"
        f"{len(optimal)} Pareto-optimal of {len(result.plan.cells)} cells; "
        f"artifacts in {campaign_dir}/ ({time.time() - t0:.1f}s)",
        flush=True,
    )


if __name__ == "__main__":
    main()
