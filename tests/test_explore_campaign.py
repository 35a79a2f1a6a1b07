"""Campaign execution: sharding, resume identity, frozen verification."""

import json
from pathlib import Path

import pytest

from repro.explore.campaign import (
    CampaignError,
    run_campaign,
    run_frozen,
)
from repro.explore.lockfile import Lockfile, LockfileDivergence
from repro.explore.spec import SweepSpec
from repro.harness.engine import ResultCache

SPEC = SweepSpec(
    name="t",
    schemes=("cwsp",),
    profiles=("astar", "lbm", "milc"),
    pb_entries=(20, 50),
    n_insts=1000,
)
# 2 cells x 3 profiles + 3 baselines = 9 points.


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _run(tmp_path, cache, name="c", **kwargs):
    return run_campaign(SPEC, tmp_path / name, cache, **kwargs)


class TestCampaign:
    def test_artifacts_written(self, tmp_path, cache):
        result = _run(tmp_path, cache, shard_size=4)
        d = result.campaign_dir
        assert (d / "lockfile.json").is_file()
        assert (d / "frontier.json").is_file()
        assert (d / "frontier.md").is_file()
        assert (d / "experiments-section.md").is_file()
        shards = sorted((d / "shards").glob("shard-*.json"))
        assert len(shards) == 3  # 9 points / 4 per shard
        assert result.counters.simulated == 9

    def test_lockfile_roundtrip(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        lock = Lockfile.load(result.campaign_dir / "lockfile.json")
        assert lock.spec == SPEC
        assert lock.point_keys == result.lockfile.point_keys
        assert lock.results_digest == result.lockfile.results_digest
        assert "repro.arch.machine" in lock.salt_recipe["modules"]

    def test_warm_rerun_is_simulation_free(self, tmp_path, cache):
        _run(tmp_path, cache, name="a")
        again = _run(tmp_path, cache, name="b")
        assert again.counters.simulated == 0
        assert again.counters.cache_hits == 9

    def test_rerun_resumes_from_shards(self, tmp_path, cache):
        first = _run(tmp_path, cache)
        again = _run(tmp_path, cache)
        assert again.counters.resumed_points == 9
        assert again.counters.simulated == 0
        assert again.lockfile.results_digest == first.lockfile.results_digest

    def test_interrupted_resume_byte_identical(self, tmp_path, cache):
        # Uninterrupted reference with its own cache.
        ref = _run(tmp_path, cache, name="ref", shard_size=2)
        ref_lock = (ref.campaign_dir / "lockfile.json").read_bytes()
        ref_frontier = (ref.campaign_dir / "frontier.json").read_bytes()

        # "Killed" campaign: drop two mid-campaign shards and the
        # lockfile, wipe the result cache, resume from scratch state.
        kill_cache = ResultCache(str(tmp_path / "kill-cache"))
        killed = _run(tmp_path, kill_cache, name="kill", shard_size=2)
        (killed.campaign_dir / "shards" / "shard-0001.json").unlink()
        (killed.campaign_dir / "shards" / "shard-0003.json").unlink()
        (killed.campaign_dir / "lockfile.json").unlink()
        import shutil

        shutil.rmtree(tmp_path / "kill-cache")

        resumed = run_campaign(
            SPEC, killed.campaign_dir, ResultCache(str(tmp_path / "kill-cache")),
            shard_size=2,
        )
        assert resumed.counters.resumed_points == 5  # shards 0, 2, 4
        assert resumed.counters.simulated == 4
        assert (resumed.campaign_dir / "lockfile.json").read_bytes() == ref_lock
        assert (
            resumed.campaign_dir / "frontier.json"
        ).read_bytes() == ref_frontier

    def test_stale_shard_fails_loudly(self, tmp_path, cache):
        result = _run(tmp_path, cache, shard_size=4)
        shard = result.campaign_dir / "shards" / "shard-0000.json"
        data = json.loads(shard.read_text())
        data["code_salt"] = "0" * 16
        shard.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="stale shard"):
            run_campaign(SPEC, result.campaign_dir, cache, shard_size=4)

    def test_torn_shard_recomputed(self, tmp_path, cache):
        result = _run(tmp_path, cache, shard_size=4)
        shard = result.campaign_dir / "shards" / "shard-0000.json"
        shard.write_text("{torn")
        again = run_campaign(SPEC, result.campaign_dir, cache, shard_size=4)
        assert again.lockfile.results_digest == result.lockfile.results_digest

    def test_shard_size_does_not_change_lock_identity(self, tmp_path, cache):
        a = _run(tmp_path, cache, name="a", shard_size=2)
        b = _run(tmp_path, cache, name="b", shard_size=9)
        assert a.lockfile.point_keys == b.lockfile.point_keys
        assert a.lockfile.results_digest == b.lockfile.results_digest


class TestFrozen:
    def test_replay_verifies(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        counters = run_frozen(result.campaign_dir / "lockfile.json", cache)
        assert counters.simulated == 0  # warm cache: replay-only
        assert counters.cache_hits == 9

    def test_cold_cache_resimulates_and_verifies(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        cold = ResultCache(str(tmp_path / "cold"))
        counters = run_frozen(result.campaign_dir / "lockfile.json", cold)
        assert counters.simulated == 9

    def test_salt_divergence_names_modules(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        path = result.campaign_dir / "lockfile.json"
        data = json.loads(path.read_text())
        data["code_salt"] = "f" * 16
        data["salt_recipe"]["modules"]["repro.arch.machine"] = "f" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(LockfileDivergence, match="repro.arch.machine"):
            run_frozen(path, cache)

    def test_environment_divergence_fails(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        path = result.campaign_dir / "lockfile.json"
        data = json.loads(path.read_text())
        data["environment"]["python"] = "2.7.18"
        path.write_text(json.dumps(data))
        with pytest.raises(LockfileDivergence, match="environment diverged: python"):
            run_frozen(path, cache)

    def test_point_key_divergence_fails(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        path = result.campaign_dir / "lockfile.json"
        data = json.loads(path.read_text())
        data["point_keys"][0] = "0" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(LockfileDivergence, match="point keys diverged"):
            run_frozen(path, cache)

    def test_result_divergence_names_points(self, tmp_path, cache):
        result = _run(tmp_path, cache, shard_size=4)
        path = result.campaign_dir / "lockfile.json"
        data = json.loads(path.read_text())
        data["results_digest"] = "0" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(LockfileDivergence, match="results diverged"):
            run_frozen(path, cache)

    def test_tampered_spec_rejected_at_load(self, tmp_path, cache):
        result = _run(tmp_path, cache)
        path = result.campaign_dir / "lockfile.json"
        data = json.loads(path.read_text())
        data["spec"]["n_insts"] = 999  # digest no longer matches
        path.write_text(json.dumps(data))
        with pytest.raises(LockfileDivergence, match="internally inconsistent"):
            Lockfile.load(path)


class TestCli:
    def test_smoke_campaign_and_frozen_expect_cached(self, tmp_path, monkeypatch):
        from repro.explore.cli import main

        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC.to_dict()))
        main(
            [
                "--spec", str(spec_file), "--campaign-dir", "camp",
                "--cache-dir", "cache",
            ]
        )
        assert Path("camp/lockfile.json").is_file()
        # Warm replay must be simulation-free under --expect-cached.
        main(
            [
                "--frozen", "camp/lockfile.json", "--cache-dir", "cache",
                "--expect-cached",
            ]
        )

    def test_expect_cached_fails_cold(self, tmp_path, monkeypatch):
        from repro.explore.cli import main

        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC.to_dict()))
        main(["--spec", str(spec_file), "--campaign-dir", "camp", "--cache-dir", "c1"])
        with pytest.raises(SystemExit, match="expect-cached"):
            main(
                [
                    "--frozen", "camp/lockfile.json", "--cache-dir", "c2",
                    "--expect-cached",
                ]
            )

    def test_update_experiments_splices_idempotently(self, tmp_path, monkeypatch):
        from repro.explore.cli import main

        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC.to_dict()))
        Path("EXPERIMENTS.md").write_text("# EXPERIMENTS\n\nbody\n")
        args = [
            "--spec", str(spec_file), "--campaign-dir", "camp",
            "--cache-dir", "cache", "--update-experiments",
        ]
        main(args)
        first = Path("EXPERIMENTS.md").read_text()
        assert "Design-space exploration: t" in first
        assert first.startswith("# EXPERIMENTS")
        main(args)
        assert Path("EXPERIMENTS.md").read_text() == first


class TestAtomicTempNames:
    """Shard/lockfile temp files must be pid-suffixed (issue 10).

    A serve daemon and a manual campaign sharing a directory would
    otherwise write the *same* ``.tmp`` path and tear or cross-publish
    each other's files; ``engine.ResultCache.put`` already pid-suffixes
    and these writers must match.
    """

    def test_every_temp_publish_is_pid_suffixed(self, tmp_path, cache, monkeypatch):
        import os

        recorded = []
        real_replace = Path.replace

        def spy(self, target):
            recorded.append(self.name)
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        _run(tmp_path, cache, shard_size=4)
        tmps = [name for name in recorded if ".tmp" in name]
        # 3 shards + the lockfile all publish through temp renames.
        assert len(tmps) >= 4
        suffix = f".tmp.{os.getpid()}"
        assert all(name.endswith(suffix) for name in tmps), tmps

    def test_two_pids_would_not_collide(self, tmp_path, cache):
        import os

        from repro.explore.lockfile import Lockfile

        result = _run(tmp_path, cache)
        lock = Lockfile.load(result.campaign_dir / "lockfile.json")
        target = tmp_path / "x" / "lockfile.json"
        lock.save(target)
        # The name this process used is unique to its pid, so a
        # concurrent writer (different pid) uses a different one.
        used = target.with_name(f"{target.name}.tmp.{os.getpid()}")
        other = target.with_name(f"{target.name}.tmp.99999999")
        assert used != other
        assert not used.exists()  # renamed away, not left behind


class TestCampaignMeta:
    def test_meta_lands_in_lockfile_unlocked(self, tmp_path, cache):
        from repro.explore.lockfile import Lockfile

        meta = {"live_server": {"out_dir": "serve-out", "generation": 3}}
        result = _run(tmp_path, cache, name="m1", meta=meta)
        lock = Lockfile.load(result.campaign_dir / "lockfile.json")
        assert lock.meta == meta
        # meta is provenance-for-humans, not locked: the same campaign
        # without it produces the same results digest.
        plain = _run(tmp_path, cache, name="m2")
        assert plain.lockfile.results_digest == result.lockfile.results_digest
