"""The repro.perf subsystem: timers, registry, document, and the gate."""

import json

import pytest

from repro.perf.bench import (
    _EVENT_CLASSES,
    BENCHMARKS,
    BenchConfig,
    BenchResult,
    _machine,
    run_benchmarks,
)
from repro.perf.cli import compare_documents, document, main
from repro.perf.timers import PhaseTimer, Stopwatch, best_of


class TestTimers:
    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.seconds >= 0.0

    def test_phase_timer_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("plan"):
            pass
        with timer.phase("plan"):
            pass
        with timer.phase("reduce"):
            pass
        assert list(timer.seconds) == ["plan", "reduce"]
        assert timer.total() == pytest.approx(sum(timer.seconds.values()))
        assert "plan" in timer.format()

    def test_best_of_returns_minimum(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        seconds, result = best_of(fn, repeats=3)
        assert len(calls) == 3
        assert result == 3
        assert seconds >= 0.0


class TestRegistry:
    def test_expected_benchmarks_registered(self):
        expected = {
            "calibration",
            "machine.run.cwsp",
            "machine.run.baseline",
            "machine.run.capri",
            "machine.run_multicore",
            "queues.ops",
            "tracegen.synthetic",
            "harness.cold",
            "harness.warm",
            "machine.event_classes",
        }
        assert expected <= set(BENCHMARKS)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(BenchConfig(quick=True), ["no.such.bench"])

    def test_event_class_bench_reports_every_class(self):
        result = run_benchmarks(
            BenchConfig(quick=True, reps=1), ["machine.event_classes"]
        )
        res = result["machine.event_classes"]
        assert (res.unit, res.higher_is_better, res.gated) == ("ns/event", False, False)
        assert set(res.meta["ns_per_event"]) == set(_EVENT_CLASSES)
        assert all(ns > 0 for ns in res.meta["ns_per_event"].values())

    def test_event_class_streams_are_their_class(self):
        """Hit loads hit, miss loads miss, stores persist, under cwsp."""
        from repro.arch.machine import simulate
        from repro.arch.trace import PackedTrace
        from repro.schemes import cwsp

        machine = _machine()
        n = 4_000
        stats = {}
        for name, (code, addr) in _EVENT_CLASSES.items():
            addrs = [addr(i, machine.caches[0].size_bytes) for i in range(n)]
            stats[name] = simulate(PackedTrace(code * n, addrs), machine, cwsp())
        miss_rate = {k: s.metrics.value("cache.l1.miss_rate") for k, s in stats.items()}
        assert miss_rate["load_l1_hit"] < 0.01
        assert miss_rate["load_l1_miss"] == 1.0
        assert stats["store_persisted"].metrics.value("pb.pushes") == n
        assert stats["boundary"].metrics.value("core.boundaries") == n

    def test_queue_bench_runs(self):
        result = run_benchmarks(BenchConfig(quick=True, reps=1), ["queues.ops"])
        res = result["queues.ops"]
        assert res.unit == "ops/sec"
        assert res.value > 0
        assert res.meta["pushes"] > 0


def _doc(values):
    """A minimal benchmark document for comparison tests."""
    results = {
        name: BenchResult(
            name=name,
            value=value,
            unit="events/sec",
            higher_is_better=True,
            seconds=0.1,
            reps=1,
        ).to_dict()
        for name, value in values.items()
    }
    return {"schema": 1, "results": results}


class TestCompare:
    def test_no_regression(self):
        base = _doc({"m": 100.0})
        cur = _doc({"m": 110.0})
        rows = compare_documents(cur, base)
        assert len(rows) == 1
        assert rows[0].regress_pct < 0  # got faster

    def test_regression_detected(self):
        base = _doc({"m": 100.0})
        cur = _doc({"m": 50.0})
        rows = compare_documents(cur, base)
        assert rows[0].regress_pct == pytest.approx(50.0)

    def test_calibration_normalizes_host_speed(self):
        """A uniformly 2x-slower host is not a code regression."""
        base = _doc({"calibration": 1000.0, "m": 100.0})
        cur = _doc({"calibration": 500.0, "m": 50.0})
        rows = compare_documents(cur, base, normalize=True)
        assert [r.name for r in rows] == ["m"]
        assert rows[0].regress_pct == pytest.approx(0.0)
        raw = compare_documents(cur, base, normalize=False)
        assert raw[0].regress_pct == pytest.approx(50.0)

    def test_lower_is_better_unit(self):
        def doc(seconds):
            row = {
                "name": "h",
                "value": seconds,
                "unit": "seconds",
                "higher_is_better": False,
                "seconds": seconds,
                "reps": 1,
                "meta": {},
            }
            return {"schema": 1, "results": {"h": row}}

        rows = compare_documents(doc(2.0), doc(1.0))
        assert rows[0].regress_pct == pytest.approx(100.0)

    def test_ungated_benchmark_skipped(self):
        base = _doc({"m": 100.0})
        cur = _doc({"m": 10.0})  # 90% regression, but ungated
        for d in (base, cur):
            d["results"]["m"]["gated"] = False
        assert compare_documents(cur, base) == []

    def test_unit_drift_skipped(self):
        base = _doc({"m": 100.0})
        cur = _doc({"m": 100.0})
        cur["results"]["m"]["unit"] = "ops/sec"
        assert compare_documents(cur, base) == []


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "machine.run.cwsp" in out

    def test_document_provenance(self):
        results = run_benchmarks(BenchConfig(quick=True, reps=1), ["queues.ops"])
        doc = document(results, BenchConfig(quick=True))
        assert doc["kind"] == "repro.perf"
        assert doc["mode"] == "quick"
        assert "git_sha" in doc and "config" in doc
        assert doc["config"]["machine"] == "skylake_machine(scaled=True)"
        assert "queues.ops" in doc["results"]

    def test_run_without_out_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["queues.ops", "--quick", "--reps", "1"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_run_and_gate(self, tmp_path, capsys):
        """End-to-end: write a doc, then gate a second run against it."""
        out = tmp_path / "bench.json"
        rc = main(["queues.ops", "--quick", "--reps", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "queues.ops" in doc["results"]

        # Gate against itself with a generous threshold: must pass.
        out2 = tmp_path / "bench2.json"
        args = ["queues.ops", "--quick", "--reps", "1", "--out", str(out2)]
        rc = main(args + ["--compare", str(out), "--max-regress", "90"])
        assert rc == 0

        # An impossible baseline must fail the gate.
        doc["results"]["queues.ops"]["value"] *= 1000.0
        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps(doc))
        gate = ["--compare", str(impossible), "--max-regress", "25"]
        rc = main(args + gate + ["--no-normalize"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "re-measuring suspected regression(s)" in out
        assert "REGRESSION" in out

        # --no-retry must fail without the confirmation pass.
        rc = main(args + gate + ["--no-normalize", "--no-retry"])
        assert rc == 1
        assert "re-measuring" not in capsys.readouterr().out
