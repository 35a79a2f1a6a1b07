"""The repro.perf subsystem: timers, registry, document, and the gate."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.perf import cli

from repro.perf.bench import (
    _EVENT_CLASSES,
    BENCHMARKS,
    BenchConfig,
    BenchResult,
    _machine,
    run_benchmarks,
)
from repro.perf.cli import compare_pairs, document, main
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
        """Hit loads hit, miss loads miss (L2 misses in both levels, and
        past the L2's capacity), stores persist, under cwsp."""
        from repro.arch.machine import simulate
        from repro.arch.trace import PackedTrace
        from repro.schemes import cwsp

        machine = _machine()
        l1, l2 = (c.size_bytes for c in machine.caches[:2])
        n = 4_000
        assert n > l2 >> 6  # the L2 sweep fills the L2, then evicts
        stats = {}
        for name, (code, addr) in _EVENT_CLASSES.items():
            addrs = [addr(i, l1, l2) for i in range(n)]
            stats[name] = simulate(PackedTrace(code * n, addrs), machine, cwsp())
        miss_rate = {k: s.metrics.value("cache.l1.miss_rate") for k, s in stats.items()}
        assert miss_rate["load_l1_hit"] < 0.01
        assert miss_rate["load_l1_miss"] == 1.0
        assert miss_rate["load_l2_miss"] == 1.0
        assert stats["load_l2_miss"].metrics.value("cache.l2.miss_rate") == 1.0
        assert stats["store_persisted"].metrics.value("pb.pushes") == n
        assert stats["boundary"].metrics.value("core.boundaries") == n

    def test_queue_bench_runs(self):
        result = run_benchmarks(BenchConfig(quick=True, reps=1), ["queues.ops"])
        res = result["queues.ops"]
        assert res.unit == "ops/sec"
        assert res.value > 0
        assert res.meta["pushes"] > 0


def _pairs(base, change, unit="events/sec", higher_is_better=True):
    """Paired documents of one benchmark ``m`` from per-pair values."""

    def doc(value):
        row = BenchResult("m", value, unit, higher_is_better, 0.1, 1).to_dict()
        return {"results": {"m": row}}

    return [{"base": doc(b), "change": doc(c)} for b, c in zip(base, change)]


def _judge(ratios, max_regress=5.0, **kwargs):
    """The one row of a 10-pair comparison whose per-pair ratios are given."""
    base = [100.0 + i for i in range(len(ratios))]
    pairs = _pairs(base, [b * r for b, r in zip(base, ratios)], **kwargs)
    (row,) = compare_pairs(pairs, max_regress)
    return row


class TestCompare:
    def test_regression_detected(self):
        """A consistent 6 % loss fails a 5 % gate."""
        row = _judge([0.94] * 10)
        assert row["regressed"]
        assert row["median"] == pytest.approx(0.94)
        assert row["slower"] == 10

    def test_no_regression(self):
        """Noise around 1.0 with one 0.6 outlier passes."""
        row = _judge([1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99, 0.6])
        assert not row["regressed"]
        assert row["median"] == pytest.approx(0.995)

    def test_improvement_passes(self):
        row = _judge([1.2] * 10)
        assert not row["regressed"]
        assert row["slower"] == 0

    def test_loss_in_too_few_pairs_passes(self):
        """A 20 % median loss fails only when nine tenths of pairs lose."""
        assert not _judge([0.8] * 8 + [1.1] * 2)["regressed"]
        assert _judge([0.8] * 9 + [1.1])["regressed"]

    def test_lower_is_better_unit(self):
        """Seconds that double are a loss; seconds that halve are a gain."""
        slower = _judge([2.0] * 10, unit="seconds", higher_is_better=False)
        assert slower["regressed"]
        assert slower["median"] == pytest.approx(0.5)
        faster = _judge([0.5] * 10, unit="seconds", higher_is_better=False)
        assert not faster["regressed"]
        assert faster["median"] == pytest.approx(2.0)

    def test_ungated_benchmark_skipped(self):
        pairs = _pairs([100.0] * 10, [10.0] * 10)  # 90 % loss, but ungated
        for pair in pairs:
            pair["change"]["results"]["m"]["gated"] = False
        (row,) = compare_pairs(pairs, 5.0)
        assert (row["regressed"], row["note"]) == (False, "ungated")

    def test_missing_at_base_skipped(self):
        pairs = _pairs([100.0] * 10, [10.0] * 10)
        for pair in pairs:
            pair["base"]["results"] = {}
        assert compare_pairs(pairs, 5.0) == [{"name": "m", "note": "absent at base"}]

    def test_unit_drift_skipped(self):
        pairs = _pairs([100.0] * 10, [10.0] * 10)
        for pair in pairs:
            pair["base"]["results"]["m"]["unit"] = "ops/sec"
        (row,) = compare_pairs(pairs, 5.0)
        assert row == {"name": "m", "note": "unit was ops/sec"}

    def test_event_class_ratios_reported(self):
        """Each class's median per-pair ratio, lower ns/event = faster."""
        pairs = _pairs([100.0] * 3, [100.0] * 3)
        for i, pair in enumerate(pairs):
            pair["base"]["results"]["m"]["meta"]["ns_per_event"] = {"alu": 50.0 + i}
            pair["change"]["results"]["m"]["meta"]["ns_per_event"] = {"alu": 100.0}
        (row,) = compare_pairs(pairs, 5.0)
        assert row["classes"] == {"alu": pytest.approx(0.51)}


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

    def test_document_numpy_version_without_loading_numpy(self, monkeypatch):
        import numpy

        monkeypatch.delitem(sys.modules, "numpy")
        assert cli.numpy_version() == numpy.__version__
        assert "numpy" not in sys.modules

    def test_compare_needs_a_src_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--compare", str(tmp_path)])

    def test_run_and_gate(self, tmp_path, capsys, monkeypatch):
        """Paired runs against copies of this tree's src/: the copy itself
        passes, and a copy whose queues.ops reports double fails."""
        monkeypatch.setattr(cli, "PAIRS", 2)
        base = tmp_path / "src"
        shutil.copytree(
            Path(cli.__file__).resolve().parents[1],
            base / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = tmp_path / "pairs.json"
        args = ["queues.ops", "--quick", "--reps", "3", "--compare", str(base)]
        assert main(args + ["--max-regress", "25", "--out", str(out)]) == 0
        assert "OK: no regression" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert [pair["first"] for pair in doc["pairs"]] == ["base", "change"]
        assert all("queues.ops" in pair["base"]["results"] for pair in doc["pairs"])

        bench_py = base / "repro" / "perf" / "bench.py"
        text = bench_py.read_text()
        assert text.count("value=n / seconds,") == 1  # queues.ops alone
        doubled = text.replace("value=n / seconds,", "value=2 * n / seconds,")
        bench_py.write_text(doubled)
        assert main(args + ["--max-regress", "25"]) == 1
        assert "REGRESSION" in capsys.readouterr().out


#: A base tree whose ``python -m repro.perf`` lists ``queues.ops`` and
#: otherwise records its pid and sleeps: a gate run against it stays in
#: its first pair until it is stopped.
_SLOW_BASE = """
import os, sys, time
if "--list" in sys.argv:
    print("queues.ops  stub")
else:
    with open({pid_file!r}, "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(300)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_ends_a_gate_run_with_its_child_and_directory(tmp_path):
    base = tmp_path / "base"
    (base / "repro" / "perf").mkdir(parents=True)
    (base / "repro" / "__init__.py").write_text("")
    (base / "repro" / "perf" / "__init__.py").write_text("")
    pid_file = tmp_path / "child.pid"
    (base / "repro" / "perf" / "__main__.py").write_text(
        _SLOW_BASE.format(pid_file=str(pid_file))
    )
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    src = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))
    gate = subprocess.Popen(
        [sys.executable, "-m", "repro.perf", "queues.ops", "--quick",
         "--compare", str(base)],
        env=env, stdout=subprocess.DEVNULL,
    )
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert gate.poll() is None, "the gate ended before its first child ran"
            assert time.monotonic() < deadline, "the stub child never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert list(tmp.glob("repro-perf-pairs-*"))
        gate.send_signal(signal.SIGTERM)
        assert gate.wait(timeout=30) == 128 + signal.SIGTERM
        assert not _alive(child)
        assert list(tmp.iterdir()) == []
    finally:
        if gate.poll() is None:
            gate.kill()
            gate.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
