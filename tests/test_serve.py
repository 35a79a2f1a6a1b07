"""The serve daemon: dirty-delta recomputation, generation ledger, subscribe.

In-process tests drive :class:`ResultsServer` generation by generation;
the end-to-end tests boot the real ``python -m repro.harness serve``
subprocess against a *copied* checkout and edit modules under it,
proving the acceptance criteria: a comment appended to the spec module
re-imports it and triggers a generation with zero recomputed points and
a byte-identical artifacts digest, while a salted edit
(``repro.arch.machine``) recomputes the whole affected grid on the
stored traces, and an edit to the trace generator
(``repro.workloads.synthetic``) regenerates every trace too.  A reducer
that reads an edited module publishes the edited value, an edit to the
EXPERIMENTS.md renderer starts a generation with nothing dirty, and an
interrupt mid-generation ends the daemon and every process it started.
"""

import json
import os
import shutil
import signal
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

# One app at three PB sizes: points that differ only in a queue size
# are capacity siblings, and a run that never fills its PB serves the
# larger sizes.
PB_SIBLING_SPECS = TINY_SPECS.replace(
    '''    for app in ("namd", "lbm"):
        result.add(app, r.slowdown(app, cwsp(), skylake_machine(scaled=True)))''',
    '''    for entries in (64, 128, 256):
        machine = skylake_machine(scaled=True, pb_entries=entries)
        result.add(str(entries), r.slowdown("namd", cwsp(), machine))''',
)


def _specs_module(tmp_path, monkeypatch, name, text):
    (tmp_path / f"{name}.py").write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop(name, None)
    return name


@pytest.fixture
def tiny_specs(tmp_path, monkeypatch):
    yield _specs_module(tmp_path, monkeypatch, "serve_tiny_specs", TINY_SPECS)
    sys.modules.pop("serve_tiny_specs", None)


@pytest.fixture
def pb_sibling_specs(tmp_path, monkeypatch):
    yield _specs_module(tmp_path, monkeypatch, "serve_pb_specs", PB_SIBLING_SPECS)
    sys.modules.pop("serve_pb_specs", None)


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


def _generation(server, reason, changed):
    """One generation on the daemon's own path; returns its ledger entry."""
    assert server.fork_generation(reason, changed) == 0
    return read_entries(server.ledger_path)[-1]


class TestResultsServer:
    def test_initial_generation_simulates_everything(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        entry = _generation(server, "initial", [])
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

    def test_executed_counts_runs_not_served_siblings(self, tmp_path, pb_sibling_specs):
        server = _server(tmp_path, pb_sibling_specs)
        assert PB_SIBLING_SPECS != TINY_SPECS
        entry = _generation(server, "initial", [])
        assert entry["planned"] == entry["dirty"] == 6  # 3 PB sizes x 2 schemes
        assert 0 < entry["executed"] < entry["dirty"]

    def test_warm_generation_is_clean_and_byte_identical(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        first = _generation(server, "initial", [])
        artifact = (tmp_path / "out" / "artifacts" / "tiny.json").read_bytes()
        # A no-op edit to the spec module: the generation imports it
        # afresh and replans the same points, so nothing recomputes.
        with open(tmp_path / f"{tiny_specs}.py", "a") as fh:
            fh.write("\n# serve test: no-op edit\n")
        second = _generation(server, "edit", [tiny_specs])
        assert second["generation"] == 1
        assert second["dirty"] == 0
        assert second["clean"] == second["planned"]
        assert second["executed"] == 0
        assert second["cache_hit_rate"] == 1.0
        assert second["salt"] == first["salt"]
        assert second["artifacts_digest"] == first["artifacts_digest"]
        assert second["changed_modules"] == [tiny_specs]
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
            entry = server.build_generation(reason, [])
            assert len(gets) == len(set(gets)) == entry["planned"]
        assert entry["dirty"] == 0

    def test_generation_numbering_survives_restart(self, tmp_path, tiny_specs):
        _generation(_server(tmp_path, tiny_specs), "initial", [])
        reborn = _server(tmp_path, tiny_specs)
        assert reborn.generation == 1
        entry = _generation(reborn, "initial", [])
        assert entry["generation"] == 1
        gens = [e["generation"] for e in read_entries(reborn.ledger_path)]
        assert gens == [0, 1]

    def test_status_json_reflects_last_generation(self, tmp_path, tiny_specs):
        server = _server(tmp_path, tiny_specs)
        entry = _generation(server, "initial", [])
        status = json.loads((tmp_path / "out" / "status.json").read_text())
        assert status["generation"] == 0
        assert status["salt"] == entry["salt"]
        assert status["planned"] == entry["planned"]
        assert status["experiments"] == ["tiny"]
        assert status["cache_dir"] == str((tmp_path / "cache").resolve())
        assert status["pid"] == os.getpid()

    def test_watch_covers_salted_and_spec_modules(self, tmp_path, tiny_specs):
        watched = _server(tmp_path, tiny_specs).snapshot()
        assert "repro.arch.machine" in watched       # salted
        assert tiny_specs in watched                 # the spec registry
        # What renders the published bytes: the publish path's closure.
        for name in ("experiments_md", "report", "spec", "cli", "engine", "serve"):
            assert f"repro.harness.{name}" in watched
        assert "repro.faults.campaign" not in watched
        assert None not in watched.values()

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

    def test_failed_generation_zero_ends_the_daemon(self, tmp_path, tiny_specs):
        # The generation imports the spec module from disk, as it is now.
        server = _server(tmp_path, tiny_specs, max_generations=1)
        with open(tmp_path / f"{tiny_specs}.py", "a") as fh:
            fh.write("\nthis is not python\n")
        with pytest.raises(SystemExit, match="generation 0 failed"):
            server.serve_forever()
        assert read_entries(server.ledger_path) == []


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
                "changed_modules": ["repro.harness.figures"],
            }
        )
        assert "gen 7" in line
        assert "dirty=0/37" in line
        assert "digest=feedface" in line
        assert "changed=repro.harness.figures" in line


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


def _trace_entries(root):
    """The names of the daemon's stored traces."""
    return {path.name for path in (root / "cache" / "trace").iterdir()}


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
                "--interval", "0.2", "--max-generations", "4",
                "--out", "out", "--cache-dir", "cache",
            ],
            cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            _wait_for_lines(ledger, 1)
            # A no-op edit to the spec module: it reloads, the salt does
            # not move, so the generation recomputes *zero* points and
            # republishes byte-identical artifacts.
            with open(tmp_path / "tiny_live_specs.py", "a") as fh:
                fh.write("\n# serve e2e: no-op edit\n")
            _wait_for_lines(ledger, 2)
            stored = _trace_entries(tmp_path)
            # A salted edit: every dependent point recomputes, on the
            # stored traces.
            with open(tmp_path / "src/repro/arch/machine.py", "a") as fh:
                fh.write("\n# serve e2e: salted edit\n")
            _wait_for_lines(ledger, 3)
            assert _trace_entries(tmp_path) == stored
            # An edit to the trace generator regenerates every trace.
            with open(tmp_path / "src/repro/workloads/synthetic.py", "a") as fh:
                fh.write("\n# serve e2e: generator edit\n")
            entries = _wait_for_lines(ledger, 4)
            regenerated = _trace_entries(tmp_path)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            out = proc.stdout.read() if proc.stdout else ""

        g0, g1, g2, g3 = entries[:4]
        assert [g["generation"] for g in (g0, g1, g2, g3)] == [0, 1, 2, 3]
        assert g0["dirty"] == g0["planned"] > 0
        assert len(stored) == 4  # an original and a pruned trace per app

        assert g1["changed_modules"] == ["tiny_live_specs"], out
        assert g1["dirty"] == 0
        assert g1["executed"] == 0
        assert g1["salt"] == g0["salt"]
        assert g1["artifacts_digest"] == g0["artifacts_digest"]

        assert g2["changed_modules"] == ["repro.arch.machine"], out
        assert g2["dirty"] == g2["planned"]
        assert g2["salt"] != g0["salt"]
        assert g2["trace_salt"] == g0["trace_salt"]
        assert g2["artifacts_digest"] == g0["artifacts_digest"]

        assert g3["changed_modules"] == ["repro.workloads.synthetic"], out
        assert g3["dirty"] == g3["planned"]
        assert g3["trace_salt"] != g2["trace_salt"]
        assert len(regenerated - stored) == len(stored)
        assert g3["artifacts_digest"] == g0["artifacts_digest"]

        # The subscribe CLI replays the same ledger.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.harness", "subscribe", "out",
                "--from", "-1", "--max", "4",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 4
        assert "gen 0" in lines[0]
        assert f"dirty=0/{g0['planned']}" in lines[1]
        assert "changed=repro.arch.machine" in lines[2]


# A reducer that simulates nothing and reads the scheme catalog: its
# result changes only if the generation runs the catalog now on disk.
AMP_SPECS = '''\
"""One-row registry publishing cWSP's NVM write amplification."""
from repro.harness.report import FigureResult
from repro.harness.spec import ExperimentSpec
from repro.schemes import cwsp


def _build(r, ctx):
    result = FigureResult("amp", "cWSP NVM write amplification", ["scheme", "amp"])
    result.add("cwsp", cwsp().nvm_write_amp)
    return result


SPECS = {"amp": ExperimentSpec("amp", "amp", _build, simulates=False)}
'''

# A reducer that holds a pool of two sleeping workers: a generation of
# it keeps the daemon, the generation and two workers alive.
SLEEPY_SPECS = '''\
"""A registry whose one reducer sleeps in a two-worker pool."""
import time

from repro.harness.engine import parallel_map
from repro.harness.report import FigureResult
from repro.harness.spec import ExperimentSpec


def _build(r, ctx):
    parallel_map(time.sleep, [120, 120], jobs=2)
    return FigureResult("sleepy", "sleeps", ["x"])


SPECS = {"sleepy": ExperimentSpec("sleepy", "sleepy", _build, simulates=False)}
'''


def _copied_checkout(tmp_path, specs_name, specs_source):
    """A copy of ``src/`` plus a spec module, and the env that runs it."""
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    (tmp_path / f"{specs_name}.py").write_text(specs_source)
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{tmp_path / 'src'}{os.pathsep}{tmp_path}"
    return env


def _serve(tmp_path, env, args, **popen):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness", "serve", *args,
            "--interval", "0.2", "--out", "out", "--cache-dir", "cache",
        ],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, **popen,
    )


def _group(pgid):
    """Pids of the live (non-zombie) processes in process group *pgid*."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


class TestServeRunsFreshCode:
    def test_reducer_publishes_the_edited_catalog(self, tmp_path):
        env = _copied_checkout(tmp_path, "amp_specs", AMP_SPECS)
        ledger = tmp_path / "out" / "generations.jsonl"
        artifact = tmp_path / "out" / "artifacts" / "amp.json"
        proc = _serve(
            tmp_path, env,
            ["amp", "--specs-module", "amp_specs", "--max-generations", "2"],
        )
        try:
            _wait_for_lines(ledger, 1)
            before = json.loads(artifact.read_text())["rows"]
            catalog = tmp_path / "src" / "repro" / "schemes" / "catalog.py"
            text = catalog.read_text()
            edited = text.replace(
                "nvm_write_amp=2.0,  # background undo log", "nvm_write_amp=2.5,  #"
            )
            assert edited != text
            catalog.write_text(edited)
            g0, g1 = _wait_for_lines(ledger, 2)[:2]
            after = json.loads(artifact.read_text())["rows"]
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err = proc.stderr.read()
        assert before == [["cwsp", 2.0]], err
        assert g1["changed_modules"] == ["repro.schemes.catalog"], err
        assert after == [["cwsp", 2.5]], err
        assert g1["artifacts_digest"] != g0["artifacts_digest"]

    def test_renderer_edit_republishes_with_nothing_dirty(self, tmp_path):
        env = _copied_checkout(tmp_path, "tiny_md_specs", TINY_SPECS)
        ledger = tmp_path / "out" / "generations.jsonl"
        proc = _serve(
            tmp_path, env,
            ["tiny", "--specs-module", "tiny_md_specs", "--max-generations", "2"],
        )
        try:
            _wait_for_lines(ledger, 1)
            renderer = tmp_path / "src" / "repro" / "harness" / "experiments_md.py"
            with open(renderer, "a") as fh:
                fh.write("\n# serve test: renderer edit\n")
            g0, g1 = _wait_for_lines(ledger, 2)[:2]
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err = proc.stderr.read()
        assert g1["changed_modules"] == ["repro.harness.experiments_md"], err
        assert g1["dirty"] == 0
        assert g1["salt"] == g0["salt"]
        assert g1["artifacts_digest"] == g0["artifacts_digest"]

    # Ctrl-C in a terminal interrupts the whole group; ``kill -INT``
    # only the daemon, which passes it on.
    @pytest.mark.parametrize("interrupt", [os.killpg, os.kill], ids=["group", "daemon"])
    def test_interrupt_mid_generation_ends_the_whole_group(self, tmp_path, interrupt):
        env = _copied_checkout(tmp_path, "sleepy_specs", SLEEPY_SPECS)
        proc = _serve(
            tmp_path, env, ["sleepy", "--specs-module", "sleepy_specs"],
            start_new_session=True,
        )
        try:
            # At least two live processes besides the daemon: the generation
            # is under way.
            deadline = time.monotonic() + 120
            while len(_group(proc.pid)) < 3:
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, _group(proc.pid)
                time.sleep(0.1)
            time.sleep(0.5)  # let the pool finish starting its workers
            interrupt(proc.pid, signal.SIGINT)
            code = proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while _group(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            left = _group(proc.pid)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # whatever is left
            except ProcessLookupError:
                pass
            proc.wait()
        assert code == 130, proc.stderr.read()
        assert left == []
