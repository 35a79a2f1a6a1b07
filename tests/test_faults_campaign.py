"""Campaign layer: schedule serialization, strategy generators, the
shrinker against a real (deliberately unsound) divergence, the trial
classifier, artifacts, and the CLI."""

import json

import pytest

from repro.faults import (
    CampaignSpec,
    FaultSchedule,
    FlipSpec,
    TearSpec,
    profile_kernel,
    run_campaign,
    run_trial,
    shrink_schedule,
    smoke_spec,
    write_artifact,
)
from repro.faults.__main__ import main as faults_main
from repro.faults.campaign import _kernel_context
from repro.faults import strategies as strat
from repro.harness.report import campaign_result, load_campaign

#: DESIGN.md 4b: skipping checkpoint-store logging is unsound; this
#: config provokes real divergences the shrinker must minimize.
UNSOUND = {"log_ckpt_stores": False, "drain_per_step": 5.0}


@pytest.fixture(scope="module")
def counter_profile():
    module, entry, args, _, _ = _kernel_context("counter")
    return module, entry, args, profile_kernel(module, "counter", entry, args)


class TestScheduleSerialization:
    def test_round_trip_full(self):
        s = FaultSchedule(
            cuts=[57, 4, 0],
            tear=TearSpec(9),
            flip=FlipSpec("ckpt", 3, 41),
            config={"pb_size": 8},
            strategy="random",
            seed=77,
        )
        again = FaultSchedule.from_json(s.to_json())
        assert again == s

    def test_round_trip_minimal(self):
        s = FaultSchedule(cuts=[5])
        assert FaultSchedule.from_json(s.to_json()) == s
        assert s.describe() == "cuts=5"

    def test_provenance_in_artifact_record(self):
        # Satellite: every divergence artifact carries the campaign seed
        # and the full schedule, reproducible from one CLI line.
        s = FaultSchedule(cuts=[3], strategy="corruption", seed=42)
        record = run_trial("counter", s)
        data = record.to_dict()
        assert data["schedule"]["seed"] == 42
        assert data["schedule"]["strategy"] == "corruption"
        assert "python -m repro.faults repro --kernel counter" in data["repro"]
        json.dumps(data)  # must be JSON-serializable as-is

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"cuts": [0]}, "primary cut must be at least 1"),
            ({"cuts": [-5]}, "primary cut must be at least 1"),
            ({"cuts": [60, -3]}, "nested cut must be at least 0"),
            ({"tear": 0}, "tear apply index must be at least 1"),
            ({"tear": 2, "cuts": [-1]}, "nested cut must be at least 0"),
        ],
        ids=["primary-0", "primary-neg", "nested-neg", "tear-0", "tear-nested-neg"],
    )
    def test_malformed_schedule_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            FaultSchedule.from_dict(data)

    def test_lowest_legal_counts_accepted(self):
        # A nested 0 is a cut during recovery; with a tear every cut is nested.
        assert FaultSchedule.from_dict({"cuts": [1, 0]}).cuts == [1, 0]
        assert FaultSchedule.from_dict({"tear": 1, "cuts": [0]}).nested_cuts == [0]

    def test_nested_cuts_semantics(self):
        assert FaultSchedule(cuts=[5, 2]).nested_cuts == [2]
        assert FaultSchedule(cuts=[5, 2], tear=TearSpec(1)).nested_cuts == [5, 2]
        assert FaultSchedule(cuts=[5], tear=TearSpec(1)).crash_count == 2


class TestStrategies:
    def test_single_sweep_includes_final_event(self, counter_profile):
        _, _, _, profile = counter_profile
        points = [s.cuts[0] for s in strat.single_cut_sweep(profile, 100)]
        assert profile.total_events in points

    def test_torn_sweep_covers_last_apply(self, counter_profile):
        _, _, _, profile = counter_profile
        idxs = [s.tear.apply_index for s in strat.torn_persist_sweep(profile, 100)]
        assert profile.total_applies in idxs

    def test_nested_sweep_includes_recovery_cut(self, counter_profile):
        module, entry, args, profile = counter_profile
        schedules = strat.nested_crash_sweep(
            module, profile, entry, args, stride=200, stride2=50, k=2
        )
        assert schedules
        assert all(len(s.cuts) == 2 for s in schedules)
        # Offset 0 (cut during recovery itself) is always attacked.
        assert any(s.cuts[1] == 0 for s in schedules)

    def test_nested_sweep_depth_k3(self, counter_profile):
        module, entry, args, profile = counter_profile
        schedules = strat.nested_crash_sweep(
            module, profile, entry, args, stride=300, stride2=100, k=3, seed=5
        )
        assert schedules and all(len(s.cuts) == 3 for s in schedules)

    def test_seeded_strategies_deterministic(self, counter_profile):
        _, _, _, profile = counter_profile
        a = strat.corruption_campaign(profile, 10, seed=3)
        b = strat.corruption_campaign(profile, 10, seed=3)
        c = strat.corruption_campaign(profile, 10, seed=4)
        assert a == b
        assert a != c
        assert strat.random_mix(profile, 10, 9) == strat.random_mix(profile, 10, 9)

    def test_boundary_sweep_squeezes_config(self, counter_profile):
        module, entry, args, _ = counter_profile
        schedules = strat.boundary_state_sweep(module, "counter", entry, args)
        assert schedules
        assert all(s.config == strat.BOUNDARY_CONFIG for s in schedules)
        assert any(len(s.cuts) == 2 for s in schedules)  # nested pairs too


class TestShrinker:
    def test_shrinks_real_divergence_to_minimal(self):
        # A 3-crash schedule under the known-unsound config diverges;
        # the shrinker must reduce it while preserving the failure.
        schedule = FaultSchedule(cuts=[96, 7, 3], config=dict(UNSOUND))
        assert run_trial("counter", schedule).is_failure

        evals = [0]

        def still_fails(cand):
            evals[0] += 1
            return run_trial("counter", cand).is_failure

        shrunk = shrink_schedule(schedule, still_fails, max_evals=120)
        assert run_trial("counter", shrunk).is_failure
        assert len(shrunk.cuts) < 3  # nested cuts were not needed
        assert shrunk.config  # the unsound config IS needed; kept
        assert evals[0] <= 120

    def test_respects_eval_budget(self):
        calls = [0]

        def never_fails(_cand):
            calls[0] += 1
            return False

        s = FaultSchedule(cuts=[50, 10, 5], flip=FlipSpec("log", 1, 2))
        out = shrink_schedule(s, never_fails, max_evals=7)
        assert out == s  # nothing accepted
        assert calls[0] <= 8


class TestTrialsAndCampaign:
    def test_ok_and_completed_classification(self):
        assert run_trial("counter", FaultSchedule(cuts=[40])).status == "ok"
        assert run_trial("counter", FaultSchedule(cuts=[10_000_000])).status == "completed"

    def test_unsound_config_is_failure(self):
        # With checkpoint-store logging disabled, a reverted image can
        # hold stale checkpoint slots: either RS validation trips
        # ("error") or the resumed run silently diverges ("divergent").
        # Both are campaign failures; neither is ever reported "ok".
        record = run_trial("counter", FaultSchedule(cuts=[95], config=dict(UNSOUND)))
        assert record.status in ("divergent", "error")
        assert record.is_failure

    def test_campaign_artifact_and_report(self, tmp_path):
        spec = CampaignSpec(
            kernels=["counter"],
            strategies=["torn", "corruption"],
            seed=2,
            torn_stride=40,
            corruption_trials=6,
        )
        artifact = run_campaign(spec, jobs=1)
        assert artifact["meta"]["seed"] == 2
        assert artifact["totals"]["trials"] == sum(
            cell["trials"]
            for cells in artifact["per_kernel"].values()
            for cell in cells.values()
        )
        assert artifact["totals"]["divergent"] == 0
        assert artifact["totals"]["error"] == 0
        assert artifact["divergences"] == []

        path = tmp_path / "campaign.json"
        write_artifact(artifact, str(path))
        loaded = load_campaign(str(path))
        assert loaded["totals"] == artifact["totals"]

        result = campaign_result(loaded)
        assert "all consistent-or-degraded" in result.description
        assert result.summary["divergent"] == 0
        table = result.format_table()
        assert "counter" in table and "torn" in table

    def test_campaign_independent_of_jobs(self):
        """Trials are pure functions of (kernel, schedule): one worker
        reports what two did."""
        spec = CampaignSpec(
            kernels=["counter"],
            strategies=["torn", "corruption"],
            seed=2,
            torn_stride=40,
            corruption_trials=6,
        )
        seq = run_campaign(spec, jobs=1)
        par = run_campaign(spec, jobs=2)
        for key in ("per_kernel", "totals", "divergences"):
            assert seq[key] == par[key], key

    def test_one_driver_runs_both_suites(self):
        """The driver tallies each task under its cell path: (strategy,)
        for a single-core kernel, (scheme, strategy) for a concurrent
        one, and only the multicore record carries its scheme."""

        class FixedSpec:
            max_shrink_evals = 10

            def tasks(self):
                return [
                    ("counter", ("torn",), FaultSchedule(
                        cuts=[95], config=dict(UNSOUND), strategy="torn")),
                    ("mpmc_queue", ("default", "mt-atomic"), FaultSchedule(
                        cuts=[37], config=dict(UNSOUND), strategy="mt-atomic")),
                ]

            def sections(self):
                return {}

            def to_dict(self):
                return {}

        lines = []
        artifact = run_campaign(FixedSpec(), log=lines.append)
        assert artifact["per_kernel"]["counter"]["torn"]["trials"] == 1
        assert artifact["per_kernel"]["mpmc_queue"]["default"]["mt-atomic"]["trials"] == 1
        single, multi = artifact["divergences"]
        assert "scheme" not in single
        assert multi["scheme"] == "default"
        assert lines[0].startswith("DIVERGENCE counter: cuts=95")
        assert lines[1].startswith("DIVERGENCE mpmc_queue/default: cuts=37")
        assert all("repro: PYTHONPATH=src python -m repro.faults repro" in line
                   for line in lines)

    def test_divergent_campaign_shrinks_and_reports(self):
        # Inject the unsound schedule through the campaign plumbing by
        # running the shrink path on a handcrafted failure record.
        record = run_trial("counter", FaultSchedule(cuts=[96, 7], config=dict(UNSOUND)))
        assert record.is_failure
        data = record.to_dict()
        assert data["status"] in ("divergent", "error")
        assert "--schedule" in data["repro"]

    def test_build_schedules_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CampaignSpec(kernels=["counter"], strategies=["bogus"]).tasks()

    def test_smoke_spec_is_bounded(self):
        spec = smoke_spec(seed=9)
        assert spec.seed == 9
        assert "single" not in spec.strategies  # covered by nested k=2 anyway
        assert len(spec.kernels) <= 6


class TestCLI:
    def test_repro_ok_exit_zero(self, capsys):
        rc = faults_main(["repro", "--kernel", "counter", "--schedule", '{"cuts": [40]}'])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_repro_failure_exit_one(self, capsys):
        schedule = FaultSchedule(cuts=[95], config=dict(UNSOUND))
        rc = faults_main(
            ["repro", "--kernel", "counter", "--schedule", schedule.to_json()]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "DIVERGENT" in out or "ERROR" in out

    def test_campaign_cli_pass(self, capsys, tmp_path):
        out = tmp_path / "art.json"
        rc = faults_main(
            [
                "--kernels", "counter",
                "--strategies", "torn",
                "--torn-stride", "60",
                "--out", str(out),
            ]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in text and "0 silent divergences" in text
        assert out.exists()
        assert load_campaign(str(out))["totals"]["divergent"] == 0

    @pytest.mark.parametrize(
        "kernel, schedule, message",
        [
            ("counter", '{"cuts": [0]}', "primary cut must be at least 1"),
            ("counter", '{"cuts": [-5]}', "primary cut must be at least 1"),
            ("counter", '{"cuts": [60, -3]}', "nested cut must be at least 0"),
            ("counter", '{"tear": 0}', "tear apply index must be at least 1"),
            ("mpmc_queue", '{"tear": 3}', "is concurrent"),
            ("mpmc_queue", '{"cuts": [25], "flip": ["log", 1, 2]}', "is concurrent"),
            ("counter", '{"cuts": [40], "interleave": [1, 0]}', "is single-core"),
        ],
        ids=["primary-0", "primary-neg", "nested-neg", "tear-0",
             "conc-tear", "conc-flip", "single-interleave"],
    )
    def test_repro_rejects_malformed_schedule(self, capsys, kernel, schedule, message):
        with pytest.raises(SystemExit) as exc:
            faults_main(["repro", "--kernel", kernel, "--schedule", schedule])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--multicore"]], ids=["single", "multicore"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--kernels", "counter"), ("--strategies", "torn"), ("--schemes", "default"),
         ("--k", "2"), ("--stride", "7"), ("--stride2", "5"), ("--torn-stride", "7"),
         ("--corruption-trials", "40"), ("--random-trials", "30")],
    )
    def test_spec_flags_rejected_with_smoke(self, capsys, mode, flag, value):
        # The defaults among the values: being given is the error.
        with pytest.raises(SystemExit) as exc:
            faults_main([*mode, "--smoke", flag, value])
        assert exc.value.code == 2
        assert f"{flag} cannot be combined with --smoke" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--multicore"]], ids=["single", "multicore"])
    def test_smoke_keeps_seed_jobs_and_out(self, monkeypatch, tmp_path, mode):
        import repro.faults.__main__ as cli

        def capture(spec, jobs, log):
            raise RuntimeError((spec, jobs))

        monkeypatch.setattr(cli, "run_campaign", capture)
        argv = [*mode, "--smoke", "--seed", "4", "--jobs", "1", "--out", str(tmp_path / "a")]
        with pytest.raises(RuntimeError) as exc:
            faults_main(argv)
        smoke = cli.mt_smoke_spec if mode else cli.smoke_spec
        assert exc.value.args[0] == (smoke(seed=4), 1)

    @pytest.mark.parametrize(
        "flag, value, low",
        [
            ("--jobs", "0", 1),
            ("--jobs", "-3", 1),
            ("--stride", "0", 1),
            ("--stride2", "0", 1),
            ("--torn-stride", "0", 1),
            ("--k", "0", 2),
            ("--k", "1", 2),
            ("--corruption-trials", "-1", 0),
            ("--random-trials", "-1", 0),
        ],
        ids=["jobs-0", "jobs-neg", "stride-0", "stride2-0", "torn-stride-0",
             "k-0", "k-1", "corruption-trials-neg", "random-trials-neg"],
    )
    def test_bad_numbers_are_usage_errors(self, capsys, flag, value, low):
        # A small valid campaign: code that ignored the bad value would
        # finish quickly and fail here instead of running every kernel.
        argv = ["--kernels", "counter", "--strategies", "torn",
                "--torn-stride", "60", flag, value]
        with pytest.raises(SystemExit) as exc:
            faults_main(argv)
        assert exc.value.code == 2
        assert f"{flag} must be at least {low}" in capsys.readouterr().err
