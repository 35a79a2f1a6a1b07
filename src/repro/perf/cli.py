"""``python -m repro.perf``: run benchmarks, emit JSON, gate regressions.

::

    python -m repro.perf --out bench.json        # full suite -> bench.json
    python -m repro.perf --quick                 # CI-sized runs
    python -m repro.perf machine.run.cwsp        # a subset
    python -m repro.perf --list                  # what exists
    python -m repro.perf --quick --compare BASE/src --max-regress 25

``--compare SRC`` gates this tree against another tree's ``src/``
directory (CI extracts the merge base's with ``git archive``).  Both
trees run the selected benchmarks in fresh child processes, ``PAIRS``
times each, alternating which runs first, so the two sides of a pair
see the same host speed.  A gated benchmark fails only when its median
per-pair ratio is worse than ``--max-regress`` percent *and* the change
ran slower in at least nine tenths of the pairs: host noise moves the
median, not the sign of nearly every pair.  A benchmark the base lacks,
or whose unit changed, is reported and not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.perf.bench import BENCHMARKS, BenchConfig, BenchResult, run_benchmarks

SCHEMA_VERSION = 1

#: Base/change pairs of one ``--compare``.  With ten, the change being
#: slower in nine or more by chance alone has probability 11/1024; ten
#: pairs of the quick suite take about two minutes on a 2-vCPU host.
PAIRS = 10

#: This tree's ``src/`` directory: the change side of ``--compare``.
_HERE = Path(__file__).resolve().parents[2]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def numpy_version() -> str:
    """numpy's version, read from its metadata unless numpy is loaded."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy.__version__
    import importlib.metadata

    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        return "absent"


def document(results: Dict[str, BenchResult], config: BenchConfig) -> dict:
    """The machine-readable benchmark document (``--out``)."""
    from repro.arch.config import skylake_machine

    machine = skylake_machine(scaled=True)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro.perf",
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # Trace generation draws from numpy's PCG64, so the exact
        # library version is part of a number's provenance.
        "numpy": numpy_version(),
        "platform": platform.platform(),
        "mode": "quick" if config.quick else "full",
        "config": {
            "machine": "skylake_machine(scaled=True)",
            "freq_ghz": machine.freq_ghz,
            "commit_width": machine.commit_width,
            "mc_count": machine.mc_count,
            "wpq_entries": machine.wpq_entries,
            "pb_entries": machine.pb_entries,
        },
        "results": {name: res.to_dict() for name, res in results.items()},
    }


def _speedup(base: float, change: float, higher_is_better: bool) -> float:
    return change / base if higher_is_better else base / change


def compare_pairs(pairs: List[dict], max_regress: float) -> List[dict]:
    """One row per benchmark of the change, judged over paired documents.

    Each pair is ``{"base": document, "change": document}``.  A row's
    ``ratios`` are the change's speed over the base's in each pair
    (above 1 means faster, whatever the unit's direction), and
    ``classes`` holds the median ratio of each event class in
    ``meta.ns_per_event``.  A gated benchmark regresses when its median
    ratio is more than ``max_regress`` percent below 1 and the change
    was slower in at least nine tenths of the pairs.  ``note`` says why
    a row is not gated.
    """
    rows = []
    for name, first in pairs[0]["change"]["results"].items():
        base = [p["base"]["results"].get(name) for p in pairs]
        change = [p["change"]["results"][name] for p in pairs]
        if base[0] is None or base[0]["unit"] != first["unit"]:
            why = "absent at base" if base[0] is None else f"unit was {base[0]['unit']}"
            rows.append({"name": name, "note": why})
            continue
        higher = first["higher_is_better"]
        ratios = [
            _speedup(b["value"], c["value"], higher) for b, c in zip(base, change)
        ]
        median = statistics.median(ratios)
        slower = sum(r < 1.0 for r in ratios)
        gated = base[0].get("gated", True) and first.get("gated", True)
        base_ns = [b["meta"].get("ns_per_event", {}) for b in base]
        change_ns = [c["meta"].get("ns_per_event", {}) for c in change]
        classes = {
            cls: statistics.median(
                [_speedup(b[cls], c[cls], False) for b, c in zip(base_ns, change_ns)]
            )
            for cls in change_ns[0]
            if cls in base_ns[0]
        }
        regressed = (
            gated
            and (1.0 - median) * 100.0 > max_regress
            and slower * 10 >= 9 * len(ratios)
        )
        rows.append(
            {
                "name": name,
                "note": "" if gated else "ungated",
                "ratios": ratios,
                "median": median,
                "slower": slower,
                "regressed": regressed,
                "classes": classes,
            }
        )
    return rows


def format_rows(rows: List[dict]) -> str:
    width = max(len(row["name"]) for row in rows + [{"name": "benchmark"}])
    lines = [f"{'benchmark'.ljust(width)}  {'speed':>8}  slower in"]
    for row in rows:
        name = row["name"].ljust(width)
        if "median" not in row:
            lines.append(f"{name}  {'-':>8}  not compared: {row['note']}")
            continue
        flag = f"  ({row['note']})" if row["note"] else ""
        if row["regressed"]:
            flag = "  << REGRESSION"
        lines.append(
            f"{name}  {(row['median'] - 1.0) * 100.0:>+7.1f}%  "
            f"{row['slower']}/{len(row['ratios'])} pairs{flag}"
        )
        for cls, ratio in row["classes"].items():
            lines.append(f"  {cls.ljust(width - 2)}  {(ratio - 1.0) * 100.0:>+7.1f}%")
    return "\n".join(lines)


def _child(src: Path, argv: List[str], cwd: str) -> str:
    """Run ``python -m repro.perf ARGV`` on the tree at *src*; its stdout."""
    cmd = [sys.executable, "-m", "repro.perf", *argv]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True
    )
    return proc.stdout


def run_pairs(base_src: Path, names: List[str], args) -> List[dict]:
    """``PAIRS`` alternating suite runs of *names* on the base and this tree."""
    sizing = ["--quick"] if args.quick else []
    if args.reps is not None:
        sizing += ["--reps", str(args.reps)]
    with tempfile.TemporaryDirectory(prefix="repro-perf-pairs-") as tmp:
        out = os.path.join(tmp, "bench.json")
        listing = _child(base_src, ["--list"], tmp).splitlines()
        listed = {line.split()[0] for line in listing if line.strip()}
        runs = {
            "base": (base_src, [n for n in names if n in listed]),
            "change": (_HERE, names),
        }
        pairs = []
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair: dict = {"first": order[0]}
            for side in order:
                src, picked = runs[side]
                pair[side] = {"results": {}}
                if picked:  # no names would run the whole suite
                    _child(src, [*picked, *sizing, "--out", out], tmp)
                    pair[side] = json.loads(Path(out).read_text())
            pairs.append(pair)
            print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", flush=True)
    return pairs


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def gate(args) -> int:
    """``--compare``: the paired run, its table, and the exit status."""
    base_src = Path(args.compare).resolve()
    names = args.names or list(BENCHMARKS)
    print(f"{len(names)} benchmark(s), {PAIRS} pairs against {base_src}", flush=True)
    # SIGTERM unwinds like Ctrl-C: ``subprocess.run`` kills the running
    # child and the pairs directory is removed on the way out.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        pairs = run_pairs(base_src, names, args)
    finally:
        signal.signal(signal.SIGTERM, previous)
    rows = compare_pairs(pairs, args.max_regress)
    if args.out:
        doc = {
            "schema": SCHEMA_VERSION,
            "kind": "repro.perf.pairs",
            "base_src": str(base_src),
            "max_regress": args.max_regress,
            "pairs": pairs,
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    print(f"\nchange vs base, median per-pair speed (gate {args.max_regress:g}%):")
    print(format_rows(rows))
    failures = [row["name"] for row in rows if row.get("regressed")]
    if failures:
        print(
            f"\nFAIL: slower by more than {args.max_regress:g}% in at least "
            f"nine tenths of the pairs: {', '.join(failures)}"
        )
        return 1
    print("\nOK: no regression beyond the gate")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the simulator hot paths and gate regressions.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="BENCH",
        help="benchmark names (default: all); see --list",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized runs")
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        metavar="N",
        help="repetitions per benchmark (default: 3 full, 5 quick)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the benchmark JSON document here (default: write no file)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="SRC",
        help="gate against the tree whose src/ directory is SRC, in paired runs",
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=10.0,
        metavar="PCT",
        help="with --compare: the median per-pair loss that fails (default: 10)",
    )
    parser.add_argument("--list", action="store_true", help="list benchmarks and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    if args.list:
        width = max(len(name) for name in BENCHMARKS)
        for name, fn in BENCHMARKS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name.ljust(width)}  {doc[0] if doc else ''}")
        return 0

    if args.compare:
        if not (Path(args.compare) / "repro" / "perf").is_dir():
            parser.error(f"--compare: {args.compare} is not a src/ directory")
        unknown = [n for n in args.names if n not in BENCHMARKS]
        if unknown:
            parser.error(f"unknown benchmark(s) {unknown}; see --list")
        return gate(args)

    config = BenchConfig(quick=args.quick, reps=args.reps)
    results = run_benchmarks(
        config, args.names or None, progress=lambda msg: print(msg, flush=True)
    )
    doc = document(results, config)

    print()
    width = max(len(name) for name in results)
    for name, res in results.items():
        print(
            f"{name.ljust(width)}  {res.value:>14,.0f} {res.unit}"
            f"  (best of {res.reps}, {res.seconds:.3f}s)"
        )

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out} (git {doc['git_sha'][:12]}, {doc['mode']})")
    return 0
