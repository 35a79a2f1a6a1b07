"""The serve daemon: dirty-delta recomputation, generation ledger, subscribe.

In-process tests drive :class:`ResultsServer` generation by generation;
the end-to-end test boots the real ``python -m repro.harness serve``
subprocess against a *copied* checkout and edits simulator modules
under it, proving the acceptance criteria: a contract-excluded edit
(``repro.arch.checkpoint``) triggers a generation with zero recomputed
points and a byte-identical artifacts digest, while a salted edit
(``repro.arch.machine``) recomputes the whole affected grid.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.serve import ResultsServer, ServeConfig
from repro.harness.subscribe import (
    follow,
    format_entry,
    ledger_path,
    read_entries,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# A two-point spec module: tiny enough that a generation is fast, real
# enough that its points go through compute_point and the cache.
TINY_SPECS = '''\
"""Two-point experiment registry for serve tests."""
from repro.arch import skylake_machine
from repro.harness.report import FigureResult
from repro.harness.spec import ExperimentSpec
from repro.schemes import cwsp


def _build(r, ctx):
    result = FigureResult("tiny", "serve test experiment", ["app", "slowdown"])
    for app in ("namd", "lbm"):
        result.add(app, r.slowdown(app, cwsp(), skylake_machine(scaled=True)))
    result.summary = {"n": 2.0}
    return result


SPECS = {"tiny": ExperimentSpec("tiny", "tiny", _build, default_n_insts=1000)}
'''


@pytest.fixture
def tiny_specs(tmp_path, monkeypatch):
    name = "serve_tiny_specs"
    (tmp_path / f"{name}.py").write_text(TINY_SPECS)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop(name, None)
    yield name
    sys.modules.pop(name, None)


def _server(tmp_path, tiny_specs, **overrides):
    config = ServeConfig(
        names=["tiny"],
        out_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"),
        specs_module=tiny_specs,
        interval=0.05,
        **overrides,
    )
    return ResultsServer(config)


class TestResultsServer:
    def test_initial_generation_simulates_everything(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        entry = server.run_generation("initial", [])
        assert entry["generation"] == 0
        assert entry["planned"] == 4  # 2 apps x (baseline + cwsp)
        assert entry["dirty"] == entry["planned"]
        assert entry["clean"] == 0
        assert entry["executed"] == entry["planned"]
        assert entry["cache_hit_rate"] == 0.0
        for phase in ("plan", "classify", "simulate", "reduce", "publish"):
            assert phase in entry["phase_seconds"]
        out = tmp_path / "out"
        assert (out / "artifacts" / "tiny.json").is_file()
        assert (out / "EXPERIMENTS.md").is_file()
        assert (out / "status.json").is_file()
        assert "<!-- begin autogen:serve-tiny -->" in (
            out / "EXPERIMENTS.md"
        ).read_text()

    def test_warm_generation_is_clean_and_byte_identical(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        first = server.run_generation("initial", [])
        artifact = (tmp_path / "out" / "artifacts" / "tiny.json").read_bytes()
        second = server.run_generation("edit", ["repro.arch.checkpoint"])
        assert second["generation"] == 1
        assert second["dirty"] == 0
        assert second["clean"] == second["planned"]
        assert second["executed"] == 0
        assert second["cache_hit_rate"] == 1.0
        assert second["artifacts_digest"] == first["artifacts_digest"]
        assert second["changed_modules"] == ["repro.arch.checkpoint"]
        assert (
            tmp_path / "out" / "artifacts" / "tiny.json"
        ).read_bytes() == artifact

    def test_each_generation_reads_each_entry_once(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        inner = server.cache
        gets = []

        class CountingCache:
            def get(self, key):
                gets.append(key)
                return inner.get(key)

            def put(self, key, point, stats):
                inner.put(key, point, stats)

        server.cache = CountingCache()
        for reason in ("initial", "edit"):
            gets.clear()
            entry = server.run_generation(reason, [])
            assert len(gets) == len(set(gets)) == entry["planned"]
        assert entry["dirty"] == 0

    def test_generation_numbering_survives_restart(self, tmp_path, tiny_specs):
        _server(tmp_path, tiny_specs).run_generation("initial", [])
        reborn = _server(tmp_path, tiny_specs)
        assert reborn.generation == 1
        entry = reborn.run_generation("initial", [])
        assert entry["generation"] == 1
        gens = [e["generation"] for e in read_entries(reborn.ledger_path)]
        assert gens == [0, 1]

    def test_status_json_reflects_last_generation(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        entry = server.run_generation("initial", [])
        status = json.loads((tmp_path / "out" / "status.json").read_text())
        assert status["generation"] == 0
        assert status["salt"] == entry["salt"]
        assert status["planned"] == entry["planned"]
        assert status["experiments"] == ["tiny"]
        assert status["cache_dir"] == str((tmp_path / "cache").resolve())
        assert status["pid"] == os.getpid()

    def test_watch_covers_salted_excluded_and_spec_modules(
        self, tmp_path, tiny_specs
    ):
        watched = _server(tmp_path, tiny_specs).watch_paths()
        assert "repro.arch.machine" in watched       # salted
        assert "repro.arch.checkpoint" in watched    # contract-excluded
        assert tiny_specs in watched                 # the spec registry
        assert "repro.harness.engine" not in watched
        for path in watched.values():
            assert path.is_file()

    def test_unknown_experiment_fails_at_boot(self, tmp_path, tiny_specs):
        config = ServeConfig(
            names=["nonesuch"],
            out_dir=str(tmp_path / "out"),
            cache_dir=str(tmp_path / "cache"),
            specs_module=tiny_specs,
        )
        with pytest.raises(SystemExit, match="nonesuch"):
            ResultsServer(config)

    def test_serve_forever_honors_max_generations(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs, max_generations=1)
        assert server.serve_forever() == 0
        assert len(read_entries(server.ledger_path)) == 1


class TestLedgerAndSubscribe:
    def _write(self, path, entries, tail=""):
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = "".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in entries
        )
        path.write_text(lines + tail)

    def test_read_entries_missing_file_is_empty(self, tmp_path):
        assert read_entries(tmp_path / "nope.jsonl") == []

    def test_read_entries_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "generations.jsonl"
        self._write(path, [{"generation": 0}, {"generation": 1}], tail='{"gen')
        assert [e["generation"] for e in read_entries(path)] == [0, 1]

    def test_read_entries_rejects_interior_corruption(self, tmp_path):
        path = tmp_path / "generations.jsonl"
        path.write_text('{"generation": 0}\nnot json\n{"generation": 2}\n')
        with pytest.raises(ValueError, match="corrupt ledger line 2"):
            read_entries(path)

    def test_follow_replays_after_generation(self, tmp_path):
        path = ledger_path(str(tmp_path))
        self._write(path, [{"generation": g} for g in range(4)])
        got = list(follow(str(tmp_path), after=1, max_entries=2))
        assert [e["generation"] for e in got] == [2, 3]

    def test_format_entry_carries_the_key_fields(self):
        line = format_entry(
            {
                "generation": 7,
                "reason": "edit",
                "salt": "abc123",
                "planned": 37,
                "dirty": 0,
                "clean": 37,
                "cache_hit_rate": 1.0,
                "phase_seconds": {"plan": 0.1, "simulate": 0.0},
                "artifacts_digest": "feedface",
                "changed_modules": ["repro.arch.checkpoint"],
            }
        )
        assert "gen 7" in line
        assert "dirty=0/37" in line
        assert "digest=feedface" in line
        assert "changed=repro.arch.checkpoint" in line


# ----------------------------------------------------------------------
# End to end: the real daemon in a scratch checkout, under live edits.
# ----------------------------------------------------------------------
def _wait_for_lines(path, n, deadline=180.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        entries = read_entries(path)
        if len(entries) >= n:
            return entries
        time.sleep(0.2)
    raise AssertionError(
        f"ledger never reached {n} generations: {read_entries(path)}"
    )


class TestServeEndToEnd:
    def test_live_edits_drive_exact_dirty_deltas(self, tmp_path):
        shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        (tmp_path / "tiny_live_specs.py").write_text(TINY_SPECS)
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{tmp_path / 'src'}{os.pathsep}{tmp_path}"
        ledger = tmp_path / "out" / "generations.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness", "serve", "tiny",
                "--specs-module", "tiny_live_specs",
                "--interval", "0.2", "--max-generations", "3",
                "--out", "out", "--cache-dir", "cache",
            ],
            cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            _wait_for_lines(ledger, 1)
            # A contract-excluded edit: the salt must not move, so the
            # generation recomputes *zero* points and republishes
            # byte-identical artifacts.
            with open(tmp_path / "src/repro/arch/checkpoint.py", "a") as fh:
                fh.write("\n# serve e2e: no-op edit\n")
            _wait_for_lines(ledger, 2)
            # A salted edit: every dependent point recomputes.
            with open(tmp_path / "src/repro/arch/machine.py", "a") as fh:
                fh.write("\n# serve e2e: salted edit\n")
            entries = _wait_for_lines(ledger, 3)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            out = proc.stdout.read() if proc.stdout else ""

        g0, g1, g2 = entries[:3]
        assert [g0["generation"], g1["generation"], g2["generation"]] == [0, 1, 2]
        assert g0["dirty"] == g0["planned"] > 0

        assert g1["changed_modules"] == ["repro.arch.checkpoint"], out
        assert g1["dirty"] == 0
        assert g1["executed"] == 0
        assert g1["salt"] == g0["salt"]
        assert g1["artifacts_digest"] == g0["artifacts_digest"]

        assert g2["changed_modules"] == ["repro.arch.machine"], out
        assert g2["dirty"] == g2["planned"]
        assert g2["salt"] != g0["salt"]

        # The subscribe CLI replays the same ledger.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.harness", "subscribe", "out",
                "--from", "-1", "--max", "3",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 3
        assert "gen 0" in lines[0]
        assert f"dirty=0/{g0['planned']}" in lines[1]
        assert "changed=repro.arch.machine" in lines[2]
