"""Command-line front end for the experiment engine.

::

    python -m repro.harness                      # every experiment
    python -m repro.harness fig13 fig21          # a subset, one batch
    python -m repro.harness --jobs 4             # parallel execution
    python -m repro.harness --n-insts 8000       # CI-sized traces
    python -m repro.harness --no-cache           # force re-simulation
    python -m repro.harness --out artifacts/     # JSON artifacts
    python -m repro.harness --list               # what exists
    python -m repro.harness serve [...]          # live incremental daemon
    python -m repro.harness subscribe OUT        # follow serve's ledger

Requested experiments run as *one batch*: their point grids are
unioned and deduplicated before anything simulates, and results land
in the on-disk cache (``.repro-cache/``), so a warm rerun does zero
simulations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.harness.engine import CACHE_DIR, Engine, NullCache, ResultCache
from repro.harness.figures import SPECS


def artifact_dict(name: str, result, engine: Engine) -> dict:
    """JSON artifact for one experiment: rows, aggregates, provenance."""
    return {
        "experiment": result.experiment,
        "name": name,
        "description": result.description,
        "paper_says": result.paper_says,
        "headers": result.headers,
        "rows": result.rows,
        "summary": result.summary,
        "schemes": engine.provenance.get(name, {}),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help="experiment names (default: all); see --list",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache misses (default: 1)",
    )
    parser.add_argument(
        "--n-insts", type=int, default=None, metavar="N",
        help="trace length override for every experiment",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="S",
        help="trace generation seed (default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=CACHE_DIR, metavar="DIR",
        help=f"result cache location (default: {CACHE_DIR})",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write one JSON artifact per experiment into DIR",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--profile", default=None, metavar="FILE.pstats",
        help="run under cProfile and write pstats data to FILE.pstats "
        "(inspect with: python -m pstats FILE.pstats)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(argv if argv is not None else sys.argv[1:])

    # Subcommand dispatch ahead of argparse: `serve` and `subscribe`
    # own their flags (and `serve` must never collide with experiment
    # names, which are positional here).
    if argv and argv[0] == "serve":
        from repro.harness.serve import main as serve_main

        serve_main(argv[1:])
        return
    if argv and argv[0] == "subscribe":
        from repro.harness.subscribe import main as subscribe_main

        subscribe_main(argv[1:])
        return

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.n_insts is not None and args.n_insts < 1:
        parser.error("--n-insts must be at least 1")

    if args.list:
        width = max(len(name) for name in SPECS)
        for name, spec in SPECS.items():
            sim = "" if spec.simulates else "  [no simulation]"
            print(f"{name.ljust(width)}  {spec.title}{sim}")
        return

    names = args.names or list(SPECS)
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; choose from {list(SPECS)}"
        )

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    engine = Engine(
        jobs=args.jobs, cache=cache, seed=args.seed, n_insts=args.n_insts
    )
    t0 = time.time()

    def run():
        return engine.run(
            [SPECS[n] for n in names], progress=lambda msg: print(msg, flush=True)
        )

    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        results = profiler.runcall(run)
        profiler.dump_stats(args.profile)
        print(f"wrote profile to {args.profile}", flush=True)
    else:
        results = run()
    elapsed = time.time() - t0

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = results[name]
        print()
        print(result.format_table())
        if result.paper_says:
            print(f"(paper: {result.paper_says})")
        if out_dir is not None:
            path = out_dir / f"{name}.json"
            path.write_text(
                json.dumps(artifact_dict(name, result, engine), indent=2, sort_keys=True)
            )
    if out_dir is not None:
        print(f"\nwrote {len(names)} artifact(s) to {out_dir}/")
    if engine.last_run is not None:
        print(f"\n{engine.last_run.describe()} in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
