"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They cover the statistics and bound arithmetic, span self time and
wall-share attribution, the declared metric names against
``BENCHMARK.json``, and one ``--smoke`` pass of every workload.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
import spans
from spans import ROOT, Span

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Statistics and bounds
# ----------------------------------------------------------------------
def test_summary_uses_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    summary = measure.summarize(values)
    q = statistics.quantiles(values, n=4)
    assert summary["median"] == 3.5
    assert (summary["q1"], summary["q3"]) == (q[0], q[2])
    assert summary["n"] == 6 and summary["samples"] == values
    assert measure.spread(values) == pytest.approx((q[2] - q[0]) / 3.5)


def test_single_sample_has_no_spread():
    assert measure.quartiles([2.0]) == (2.0, 2.0)
    assert measure.spread([2.0]) == 0.0


def test_worsening_follows_the_better_direction():
    assert measure.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert measure.worsening(10.0, 9.0, "lower") == pytest.approx(-0.1)
    assert measure.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert measure.verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "worse beyond bound"
    assert measure.verdict(base, [v * 1.05 for v in base], 0.1, "lower") == "within bound"
    assert measure.verdict(base, [v * 0.9 for v in base], 0.1, "lower") == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert measure.verdict(noisy, [v * 1.01 for v in noisy], 0.1, "lower") == "unresolved"
    # A spread wider than the bound still resolves when every new
    # sample beats every base sample.
    assert measure.verdict(noisy, [1.0, 2.0, 4.0, 4.5], 0.1, "lower") == "better"


def test_speed_meter_factor_uses_samples_in_the_window():
    meter = measure.SpeedMeter()
    meter.samples = [
        (10, 0, 1_500_000), (20, 1, 3_000_000), (30, 0, 3_000_000), (40, 1, 750_000)
    ]
    assert meter.factor(15, 35) == pytest.approx(0.5)
    # A window holding fewer than two samples takes the two nearest.
    assert meter.factor(38, 39) == pytest.approx(1_500_000 / 1_875_000)
    assert meter.factor(0, 50, cpu=1) == pytest.approx(1_500_000 / 1_875_000)
    assert meter.factor(0, 50, cpu=0) == pytest.approx(1_500_000 / 2_250_000)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
S = 1_000_000_000  # ns per second


def tree():
    """A [0,10] with children B [1,4] and C [3,6] that overlap (two
    workers); B has a nested child D [2,3]."""
    return [
        Span("a", 0 * S, 10 * S, 1, ROOT),
        Span("b", 1 * S, 4 * S, 2, 0),
        Span("c", 3 * S, 6 * S, 3, 0),
        Span("d", 2 * S, 3 * S, 2, 1),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_seconds(tree())
    assert own == pytest.approx([10 - 5, 3 - 1, 3, 1])


def test_wall_shares_split_parallel_time_and_sum_to_the_window():
    shares, unattributed = spans.wall_shares(tree(), 0, 12 * S)
    # a: [0,1] + [6,10]; b: [1,2] + half of [3,4]; d: [2,3];
    # c: half of [3,4] + [4,6]; the root: [10,12].
    assert shares == pytest.approx([5.0, 1.5, 2.5, 1.0])
    assert unattributed == pytest.approx(2.0)
    assert sum(shares) + unattributed == pytest.approx(12.0)


def test_wall_shares_clip_to_the_window():
    shares, unattributed = spans.wall_shares(tree(), 2 * S, 5 * S)
    assert shares == pytest.approx([0.0, 0.5, 1.5, 1.0])
    assert unattributed == 0.0
    assert sum(shares) == pytest.approx(3.0)


def test_spans_ending_together_keep_their_nesting():
    nested = [Span("a", 0, 4 * S, 1, ROOT), Span("b", 0, 4 * S, 1, 0)]
    shares, unattributed = spans.wall_shares(nested, 0, 4 * S)
    assert shares == pytest.approx([0.0, 4.0]) and unattributed == 0.0


def test_load_links_worker_spans_to_the_covering_pool_span(tmp_path):
    (tmp_path / "spans-7.json").write_text(json.dumps({"pid": 7, "spans": [
        ["harness.plan", 0, 10, -1, 3],
        ["harness.pool", 20, 100, -1, 0],
    ]}))
    (tmp_path / "spans-5.json").write_text(json.dumps({"pid": 5, "spans": [
        ["harness.point", 30, 60, -1, 0],
        ["arch.run", 40, 50, 0, 9],
    ]}))
    found = spans.load(tmp_path, root_pid=7)
    layers = [s.layer for s in found]
    assert layers == ["harness.plan", "harness.pool", "harness.point", "arch.run"]
    assert [s.parent for s in found] == [ROOT, ROOT, 1, 2]


def test_tracer_records_nested_calls_and_counts(tmp_path):
    tracer = spans.Tracer(tmp_path)

    def inner(sim, events):
        return len(events)

    def outer():
        return [1, 2, 3]

    traced_inner = tracer.wrap(inner, "arch.run")
    traced_outer = tracer.wrap(lambda: traced_inner(None, outer()), "harness.point")
    traced_outer()
    tracer.flush()
    found = spans.load(tmp_path, root_pid=os.getpid())
    assert [(s.layer, s.parent, s.count) for s in found] == [
        ("harness.point", ROOT, 0),
        ("arch.run", 0, 3),
    ]


# ----------------------------------------------------------------------
# Declared names and the smoke pass
# ----------------------------------------------------------------------
def test_script_and_benchmark_json_declare_the_same_metrics():
    def declared(kind):
        return [(m["name"], m["unit"], m["better"]) for m in DECLARED[kind]]

    assert declared("end_to_end") == list(run.END_TO_END)
    assert declared("per_layer") == list(run.PER_LAYER)
    names = {name for name, _, _ in run.PER_LAYER}
    assert set(spans.SHARE_METRIC.values()) <= names
    assert set(spans.SHARE_METRIC) == {layer for _, _, layer in spans.WRAPPED}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.suite.WORKLOADS)


def test_benchmark_json_respects_its_limits():
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert DECLARED["paths"] == ["bench"]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(DECLARED["run_seconds"], int)
    for workload in DECLARED["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(out.read_text())


def test_smoke_prints_every_declared_metric(smoke):
    stdout, report = smoke
    for kind in ("end_to_end", "per_layer"):
        for metric in DECLARED[kind]:
            assert f" {metric['name']} " in stdout, metric["name"]
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert set(entry["end_to_end"]) == {m["name"] for m in DECLARED["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in DECLARED["per_layer"]}
        for summary in entry["end_to_end"].values():
            assert summary["n"] >= 1 and summary["median"] > 0
    assert report["provenance"]["nproc"] >= 1


def test_smoke_layers_add_up_to_the_traced_wall(smoke):
    _, report = smoke
    for name, entry in report["workloads"].items():
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        attributed = sum(layers[m] for m in spans.SHARE_METRIC.values())
        total = attributed + layers["trace.unattributed_s"]
        assert total == pytest.approx(layers["trace.wall_s"], rel=1e-6), name
    cold = report["workloads"]["figures-cold"]["per_layer"]
    # Forked pool workers flushed their spans.
    assert cold["arch.prime.calls"]["value"] > 0
    assert report["workloads"]["serve-edit"]["per_layer"]["serve.dirty"]["value"] > 0


def test_compare_judges_every_end_to_end_metric(smoke, tmp_path, capsys):
    _, report = smoke
    slower = json.loads(json.dumps(report))
    for entry in slower["workloads"].values():
        samples = entry["end_to_end"]["wall_s"]["samples"]
        entry["end_to_end"]["wall_s"]["samples"] = [v * 10 for v in samples]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(slower))
    with pytest.raises(SystemExit) as exit_info:
        run.compare(str(a), str(b))
    assert exit_info.value.code == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(report["workloads"]) * (len(run.END_TO_END) + 1)
    assert all("worse beyond bound" in r for r in rows if " wall_s " in r)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
