"""``python -m repro.perf``: run benchmarks, emit JSON, gate regressions.

::

    python -m repro.perf                         # full suite -> BENCH_PR8.json
    python -m repro.perf --quick                 # CI-sized runs
    python -m repro.perf machine.run.cwsp        # a subset
    python -m repro.perf --list                  # what exists
    python -m repro.perf --quick \\
        --compare benchmarks/baseline.json --max-regress 25

``--compare`` exits nonzero when any benchmark regresses more than
``--max-regress`` percent against the baseline document.  Throughput
numbers are normalized by the ``calibration`` benchmark (a fixed
pure-Python workload) before comparison, so a slower CI host is not
mistaken for a code regression; ``--no-normalize`` compares raw values.
Suspected regressions are re-measured once before the gate fails
(``--no-retry`` disables): transient contention does not reproduce,
real regressions do.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.perf.bench import BENCHMARKS, BenchConfig, BenchResult, run_benchmarks

SCHEMA_VERSION = 1


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
    try:
        import numpy

        return numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return "absent"


def document(results: Dict[str, BenchResult], config: BenchConfig) -> dict:
    """The machine-readable benchmark document (BENCH_PR8.json)."""
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


class Regression:
    """One benchmark's baseline-vs-current delta."""

    __slots__ = ("name", "unit", "base", "current", "expected", "regress_pct")

    def __init__(self, name, unit, base, current, expected, regress_pct):
        self.name = name
        self.unit = unit
        self.base = base
        self.current = current
        self.expected = expected
        self.regress_pct = regress_pct


def compare_documents(
    current: dict, baseline: dict, normalize: bool = True
) -> List[Regression]:
    """Per-benchmark regression percentages (positive = got worse).

    ``expected`` is the baseline value scaled by the hosts' calibration
    ratio; the regression is measured against that, so the gate tracks
    the *code*, not the hardware it happens to run on.
    """
    cur_results = current.get("results", {})
    base_results = baseline.get("results", {})
    factor = 1.0
    if normalize and "calibration" in cur_results and "calibration" in base_results:
        base_cal = base_results["calibration"]["value"]
        if base_cal > 0:
            factor = cur_results["calibration"]["value"] / base_cal
    out: List[Regression] = []
    for name in sorted(set(cur_results) & set(base_results)):
        if name == "calibration":
            continue
        cur = cur_results[name]
        base = base_results[name]
        if cur.get("unit") != base.get("unit"):
            continue  # incomparable across schema drift
        if not (cur.get("gated", True) and base.get("gated", True)):
            continue  # recorded for trends, too noisy to gate
        higher = bool(cur.get("higher_is_better", True))
        if higher:
            expected = base["value"] * factor
            regress = (expected - cur["value"]) / expected * 100.0 if expected else 0.0
        else:
            expected = base["value"] / factor if factor else base["value"]
            regress = (cur["value"] - expected) / expected * 100.0 if expected else 0.0
        out.append(
            Regression(
                name,
                cur.get("unit", ""),
                base["value"],
                cur["value"],
                expected,
                regress,
            )
        )
    return out


def format_comparison(rows: List[Regression], max_regress: float) -> str:
    width = max((len(r.name) for r in rows), default=4)
    header = (
        f"{'benchmark'.ljust(width)}  {'baseline':>14}  {'expected':>14}  "
        f"{'current':>14}  {'delta':>8}"
    )
    lines = [header]
    for r in rows:
        flag = "  << REGRESSION" if r.regress_pct > max_regress else ""
        lines.append(
            f"{r.name.ljust(width)}  {r.base:>14,.0f}  {r.expected:>14,.0f}  "
            f"{r.current:>14,.0f}  {-r.regress_pct:>+7.1f}%{flag}"
        )
    return "\n".join(lines)


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
        default="BENCH_PR8.json",
        metavar="PATH",
        help="benchmark JSON output (default: BENCH_PR8.json)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline JSON to gate against",
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when any benchmark regresses more than PCT%% (default: 10)",
    )
    parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="compare raw values, without calibration normalization",
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="fail immediately instead of re-measuring suspected regressions",
    )
    parser.add_argument("--list", action="store_true", help="list benchmarks and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])

    if args.list:
        width = max(len(name) for name in BENCHMARKS)
        for name, fn in BENCHMARKS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name.ljust(width)}  {doc[0] if doc else ''}")
        return 0

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

    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        normalize = not args.no_normalize
        rows = compare_documents(doc, baseline, normalize=normalize)
        failing = [r.name for r in rows if r.regress_pct > args.max_regress]
        if failing and not args.no_retry:
            # Confirm before failing: transient host contention only
            # makes a benchmark slower, so the faster of two samples is
            # closer to the truth, and a real regression reproduces.
            print(f"\nre-measuring suspected regression(s): {', '.join(failing)}")
            again = run_benchmarks(
                config,
                failing + ["calibration"],
                progress=lambda msg: print(msg, flush=True),
            )
            for name, res in again.items():
                cur = results.get(name)
                better = cur is None or (
                    res.value > cur.value
                    if res.higher_is_better
                    else res.value < cur.value
                )
                if better:
                    results[name] = res
            doc = document(results, config)
            if args.out:
                text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
                Path(args.out).write_text(text)
            rows = compare_documents(doc, baseline, normalize=normalize)
        print(
            f"\ncompared against {args.compare} "
            f"(max regress {args.max_regress:.0f}%):"
        )
        print(format_comparison(rows, args.max_regress))
        failures = [r for r in rows if r.regress_pct > args.max_regress]
        if failures:
            names = ", ".join(r.name for r in failures)
            print(f"\nFAIL: regression(s) beyond {args.max_regress:.0f}%: {names}")
            return 1
        print("\nOK: no regression beyond the gate")
    return 0
