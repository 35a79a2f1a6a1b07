"""The repository benchmark: four user-facing workloads, end to end and by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py [--seed S] [--seconds T] [--out FILE] [--smoke]
    python3 bench/run.py compare A.json B.json

The first form measures one workload (see ``bench/suite.py``) for about
T seconds and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one
traced pass with ``--trace 1``.  The second form measures every
workload both ways, prints each metric's median, quartiles and sample
count, and with ``--out`` saves raw samples and provenance as JSON;
``compare`` reads two such files and judges every end-to-end metric
against its bound in ``BENCHMARK.json``.

The benchmark builds nothing: it runs ``src/`` of the checkout it sits
in, and exits nonzero without a result when there is none.
"""

import sys

sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import measure  # noqa: E402
import suite  # noqa: E402
from spans import SHARE_METRIC  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"
#: A run ends well inside the three minutes a run may take.
RUN_DEADLINE_S = 170.0

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.tracegen.calls", "count", "lower"),
    ("workloads.tracegen.events", "count", "lower"),
    ("workloads.tracegen.self_s", "s", "lower"),
    ("workloads.tracegen.events_per_s", "events/s", "higher"),
    ("arch.construct.calls", "count", "lower"),
    ("arch.construct.self_s", "s", "lower"),
    ("arch.prime.calls", "count", "lower"),
    ("arch.prime.self_s", "s", "lower"),
    ("arch.run.calls", "count", "lower"),
    ("arch.run.events", "count", "lower"),
    ("arch.run.self_s", "s", "lower"),
    ("arch.run.events_per_s", "events/s", "higher"),
    ("arch.multicore.self_s", "s", "lower"),
    ("harness.point.self_s", "s", "lower"),
    ("harness.point_s.p50", "s", "lower"),
    ("harness.point_s.p90", "s", "lower"),
    ("harness.salt.self_s", "s", "lower"),
    ("harness.plan.points", "count", "lower"),
    ("harness.plan.self_s", "s", "lower"),
    ("harness.cache.get_calls", "count", "lower"),
    ("harness.cache.get_self_s", "s", "lower"),
    ("harness.cache.hit_ratio", "ratio", "higher"),
    ("harness.cache.put_calls", "count", "lower"),
    ("harness.cache.put_self_s", "s", "lower"),
    ("harness.pool.wall_s", "s", "lower"),
    ("harness.pool.busy_frac", "ratio", "higher"),
    ("harness.pool.overhead_s", "s", "lower"),
    ("harness.reduce.self_s", "s", "lower"),
    ("explore.expand_s", "s", "lower"),
    ("explore.run_self_s", "s", "lower"),
    ("explore.score_s", "s", "lower"),
    ("explore.frontier_save_s", "s", "lower"),
    ("explore.lockfile_save_s", "s", "lower"),
    ("serve.detect_s", "s", "lower"),
    ("serve.plan_s", "s", "lower"),
    ("serve.classify_s", "s", "lower"),
    ("serve.simulate_s", "s", "lower"),
    ("serve.reduce_s", "s", "lower"),
    ("serve.publish_s", "s", "lower"),
    ("serve.dirty", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class NoResult(Exception):
    """The run produced no metrics to report."""


def say(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def tree_state() -> str:
    """What must not change while the benchmark runs: the bytes under
    ``src/`` and, in a git checkout, ``git status --porcelain``."""
    state = suite.tree_digest(ROOT / "src")
    if (ROOT / ".git").exists() and shutil.which("git"):
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        )
        state += "\n" + status.stdout
    return state


def measure_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Tuple[dict, Dict[str, List[float]]]:
    """One run of one workload: the result line and the raw samples."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        say(f"no program under {ROOT / 'src'}; run from a checkout of the repository")
        raise SystemExit(2)
    started = time.perf_counter()
    before = tree_state()
    workload = suite.WORKLOADS[name]()
    run = suite.Run(
        root=ROOT,
        seed=seed,
        sizes=suite.SMOKE if smoke else suite.DEFAULT,
        work=SCRATCH / f"{name}-{os.getpid()}",
        deadline=started + RUN_DEADLINE_S,
    )
    meter = measure.SpeedMeter()
    setup_cpus = [meter.cpus[i % len(meter.cpus)] for i in range(run.sizes.setups)]
    setups: List[measure.Sample] = []
    samples: List[measure.Sample] = []
    traced = None
    meter.start()
    try:
        if not trace:
            source = workload.setup_source(run)
            setups = [run.setup_time(source, cpu) for cpu in setup_cpus]
        workload.prepare(run)
        # A traced run times half as many plain operations: their median
        # is the base of trace.overhead_frac.
        budget = seconds / 2 if trace else seconds
        loop_start = time.perf_counter()
        while True:
            samples.append(workload.op(run, len(samples)))
            typical = statistics.median(s.wall_s for s in samples)
            now = time.perf_counter()
            if not samples[-1].ok or now - loop_start + typical > budget:
                break
            if now + 2 * typical > run.deadline:
                break
        workload.finish(run, samples)
        if trace:
            traced = workload.traced(run)
    except suite.BenchError as exc:
        raise NoResult(f"{name}: {exc}") from exc
    finally:
        meter.stop()
        workload.close(run)
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = setups + samples + ([traced[0]] if traced else [])
    failures = [s for s in attempted if not s.ok]
    for sample in failures:
        say(f"{name}: FAILED: {sample.detail}")
    unchanged = tree_state() == before
    if not unchanged:
        say("THE PROGRAM TREE CHANGED DURING THE RUN (src/ or git status)")
    ok = [s for s in samples if s.ok]
    if not ok:
        raise NoResult(f"{name}: no operation succeeded")

    def ref(sample: measure.Sample, seconds: float) -> float:
        """*seconds* measured during *sample*, at the reference host speed."""
        return seconds * meter.factor(sample.start_ns, sample.end_ns)

    raw: Dict[str, List[float]] = {}
    if trace:
        sample, layers = traced
        if not sample.ok:
            raise NoResult(f"{name}: the traced pass failed")
        untraced = statistics.median(ref(s, s.wall_s) for s in ok)
        layers["trace.overhead_frac"] = ref(sample, sample.wall_s) / untraced - 1.0
        table = PER_LAYER
        values = {metric: float(layers.get(metric, 0.0)) for metric, _, _ in PER_LAYER}
        attributed = sum(values[m] for m in SHARE_METRIC.values())
        say(
            f"{name}: layer self times {attributed:.4f}s + unattributed "
            f"{values['trace.unattributed_s']:.4f}s of traced wall "
            f"{values['trace.wall_s']:.4f}s"
        )
    else:
        raw = {
            "wall_s": [ref(s, s.wall_s) for s in ok],
            "cpu_s": [ref(s, s.cpu_s) for s in ok],
            "setup_s": [
                s.wall_s * meter.factor(s.start_ns, s.end_ns, cpu)
                for s, cpu in zip(setups, setup_cpus)
                if s.ok
            ],
            "peak_rss_mb": workload.rss_samples(samples),
            # The same operations in host seconds, and the host's speed.
            "host_wall_s": [s.wall_s for s in ok],
            "host_cpu_s": [s.cpu_s for s in ok],
            "speed_factor": [meter.factor(s.start_ns, s.end_ns) for s in ok],
        }
        if not all(raw.values()):
            raise NoResult(f"{name}: some metric has no successful sample")
        table = END_TO_END
        values = {metric: statistics.median(raw[metric]) for metric, _, _ in END_TO_END}
    result = {
        "correct": not failures and unchanged,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit, _ in table},
    }
    return result, raw


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def provenance(args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "loadavg_at_start": list(os.getloadavg()),
    }


def report_all(args) -> None:
    """Every workload, untraced then traced; a table and optional JSON."""
    started = time.perf_counter()
    report = {"provenance": provenance(args), "workloads": {}}
    print(f"{'workload':14} {'metric':32} {'unit':8} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>4}")
    for name in suite.WORKLOADS:
        plain, raw = measure_workload(name, args.seed, args.seconds, False, args.smoke)
        traced, _ = measure_workload(name, args.seed, args.seconds, True, args.smoke)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        entry = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "end_to_end": {
                m: dict(measure.summarize(raw[m]), unit=unit) for m, unit, _ in END_TO_END
            },
            "host": {
                m: measure.summarize(raw[m])
                for m in ("host_wall_s", "host_cpu_s", "speed_factor")
            },
            "per_layer": traced["metrics"],
        }
        report["workloads"][name] = entry
        for metric, unit, _ in END_TO_END:
            s = entry["end_to_end"][metric]
            print(f"{name:14} {metric:32} {unit:8} {s['median']:12.4f} "
                  f"{s['q1']:12.4f} {s['q3']:12.4f} {s['n']:4d}")
        print(f"{name:14} {'failed_frac':32} {'ratio':8} {entry['failed_frac']:12.4f} "
              f"{'':12} {'':12} {attempted:4d}")
        for metric, unit, _ in PER_LAYER:
            value = traced["metrics"][metric]["value"]
            print(f"{name:14} {metric:32} {unit:8} {value:12.4f} {'':12} {'':12} {1:4d}")
    report["total_wall_s"] = time.perf_counter() - started
    print(f"total wall time: {report['total_wall_s']:.1f}s")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if not all(w["correct"] for w in report["workloads"].values()):
        raise SystemExit(1)


def compare(path_a: str, path_b: str) -> None:
    """One row per workload and end-to-end metric: B judged against A."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in declared}
    print(f"{'workload':14} {'metric':12} {'A median':>10} {'B median':>10} "
          f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    worse = False
    for name in a:
        if name not in b:
            continue
        for metric, _, better in END_TO_END:
            sa = a[name]["end_to_end"][metric]["samples"]
            sb = b[name]["end_to_end"][metric]["samples"]
            ma, mb = statistics.median(sa), statistics.median(sb)
            verdict = measure.verdict(sa, sb, bounds[metric], better)
            worse |= verdict == "worse beyond bound"
            print(f"{name:14} {metric:12} {ma:10.4f} {mb:10.4f} "
                  f"{(mb - ma) / ma:+8.1%} {measure.spread(sa):9.1%} "
                  f"{measure.spread(sb):9.1%} {bounds[metric]:6.0%}  {verdict}")
        fa, fb = a[name]["failed_frac"], b[name]["failed_frac"]
        verdict = "worse beyond bound" if fb > fa else "within bound"
        worse |= fb > fa
        print(f"{name:14} {'failed_frac':12} {fa:10.4f} {fb:10.4f} {'':8} "
              f"{'':9} {'':9} {'0':>6}  {verdict}")
    raise SystemExit(1 if worse else 0)


def main(argv: List[str]) -> None:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: python3 bench/run.py compare A.json B.json")
        compare(argv[1], argv[2])
        return
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS),
                        help="measure one workload (default: all, with a report)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default: 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long a run times operations (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for testing the benchmark itself")
    parser.add_argument("--out", metavar="FILE", help="report JSON (all workloads)")
    args = parser.parse_args(argv)
    if len(os.sched_getaffinity(0)) < 2:
        say(f"WARNING: {len(os.sched_getaffinity(0))} CPU(s); the workloads use "
            f"{suite.JOBS} worker processes")
    try:
        if args.workload is None:
            report_all(args)
            return
        result, _ = measure_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except NoResult as exc:
        say(f"no result: {exc}")
        raise SystemExit(1)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
