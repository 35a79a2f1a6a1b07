"""The ``python -m repro.harness`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import cli
from repro.harness.figures import SPECS


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        cli.main(["--list"])
        out = capsys.readouterr().out
        for name in SPECS:
            assert name in out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit, match="nope"):
            cli.main(["nope"])

    def test_runs_selected_and_prints_tables(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli.main(["tab01", "hw"])
        out = capsys.readouterr().out
        assert "Table I" in out and "Section IX-N" in out
        assert "deduplicated points" in out

    def test_out_writes_artifacts_with_provenance(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli.main(
            ["fig13", "--n-insts", "1500", "--no-cache", "--out", str(tmp_path / "art")]
        )
        artifact = json.loads((tmp_path / "art" / "fig13.json").read_text())
        assert artifact["experiment"] == "Figure 13"
        assert artifact["headers"] == ["app", "slowdown"]
        assert len(artifact["rows"]) > 37
        # scheme provenance: full knob dictionaries per scheme
        assert set(artifact["schemes"]) == {"baseline", "cwsp"}
        assert artifact["schemes"]["cwsp"]["persist_bytes"] == 8

    def test_cache_dir_and_warm_rerun(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["fig13", "--n-insts", "1500", "--cache-dir", str(tmp_path / "cache")]
        cli.main(args)
        first = capsys.readouterr().out
        assert "0 cached" in first
        cli.main(args)
        second = capsys.readouterr().out
        assert "0 simulated" in second

    def test_seed_changes_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli.main(["fig13", "--n-insts", "1500", "--no-cache", "--seed", "1",
                  "--out", str(tmp_path / "s1")])
        cli.main(["fig13", "--n-insts", "1500", "--no-cache", "--seed", "2",
                  "--out", str(tmp_path / "s2")])
        a = json.loads((tmp_path / "s1" / "fig13.json").read_text())
        b = json.loads((tmp_path / "s2" / "fig13.json").read_text())
        assert a["rows"] != b["rows"]  # the seed is not hard-coded

    def test_violated_check_is_a_clean_failure(self, tmp_path):
        # A spec whose check fails, patched into the registry the CLI reads.
        script = (
            "from repro.harness import cli\n"
            "from repro.harness.report import FigureResult\n"
            "from repro.harness.spec import ExperimentSpec\n"
            "def build(r, ctx):\n"
            "    result = FigureResult('Broken', 'd', ['k', 'v'])\n"
            "    result.add('x', 1.0)\n"
            "    return result\n"
            "def check(result):\n"
            "    assert result.rows[0][1] > 2.0, 'the value exceeds two'\n"
            "cli.SPECS['broken'] = ExperimentSpec(\n"
            "    'broken', 'broken', build, simulates=False, check=check)\n"
            "cli.main(['broken', '--no-cache'])\n"
        )
        proc = _run_module([script], tmp_path, flag="-c")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert "broken" in lines[0] and "the value exceeds two" in lines[0]

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--jobs", "--n-insts"])
    @pytest.mark.parametrize(
        "command",
        [
            ["repro.harness", "fig08", "--no-cache"],
            ["repro.harness", "serve", "fig08", "--out", "out",
             "--cache-dir", "cache", "--max-generations", "1"],
        ],
        ids=["harness", "serve"],
    )
    def test_counts_below_one_are_usage_errors(self, tmp_path, command, flag, value):
        # A trace of no instructions divides by zero in the reducers
        # after every point has simulated; no worker count runs anything.
        proc = _run_module(
            command + ["--jobs", "1", "--n-insts", "500", flag, value], tmp_path
        )
        assert proc.returncode == 2, proc.stderr
        assert f"{flag} must be at least 1" in proc.stderr

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_explore_jobs_below_one_is_a_usage_error(self, tmp_path, value):
        proc = _run_module(
            ["repro.explore", "--preset", "smoke", "--campaign-dir", "camp",
             "--no-cache", "--jobs", value],
            tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--jobs must be at least 1" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--shard-size", "0", "--shard-size must be at least 1"),
            ("--n-insts", "0", "--n-insts must be at least 1"),
            ("--seed", "-1", "--seed must be at least 0"),
        ],
        ids=["shard-size", "n-insts", "seed"],
    )
    def test_explore_bad_numbers_are_usage_errors(self, tmp_path, flag, value, message):
        # Unchecked, these died with tracebacks: a zero range() step in
        # the shard split, and SweepSpec.validate's ValueError.
        proc = _run_module(
            ["repro.explore", "--preset", "smoke", "--campaign-dir", "camp",
             "--no-cache", flag, value],
            tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def _run_module(args, cwd, flag="-m"):
    """``python -m *args`` (or ``-c``) in a child process, on this
    checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, flag] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
