"""Multicore campaign layer: strategy generators over concurrent
kernels, cross-core trial classification, nested cuts during another
thread's recovery, interleave-aware shrinking (and its termination
edges), the delay-free wait account, and the --multicore CLI."""

import json

import pytest

from repro.faults import (
    MT_SCHEMES,
    MT_STRATEGIES,
    FaultSchedule,
    MTCampaignSpec,
    mt_smoke_spec,
    profile_conc_kernel,
    run_campaign,
    run_mt_schedule,
    run_trial,
    shrink_schedule,
)
from repro.faults import multicore as mt
from repro.faults.__main__ import main as faults_main
from repro.faults.schedule import TearSpec
from repro.harness.report import campaign_result, load_campaign

#: DESIGN.md 4b: skipping checkpoint-store logging is unsound; under
#: the threaded model the recovery-slice oracle catches it per thread.
UNSOUND = {"log_ckpt_stores": False, "drain_per_step": 5.0}


@pytest.fixture(scope="module")
def queue_profile():
    module, threads, _digest, _outs, _dig = mt._mt_kernel_context("mpmc_queue")
    return module, threads, profile_conc_kernel(module, "mpmc_queue", threads)


class TestProfiling:
    def test_profile_finds_cross_thread_action(self, queue_profile):
        _module, threads, profile = queue_profile
        assert profile.total_events > 0
        assert profile.atomic_points, "queue kernel claims slots atomically"
        assert set(profile.boundary_points) == set(range(len(threads)))
        assert profile.sync_points > 0

    def test_delay_free_account_tracks_scheme(self):
        """The skewed scheme stretches drains, so each sync point burns
        more wait slots than the default scheme."""
        module, threads, _d, _o, _g = mt._mt_kernel_context("mpmc_queue")
        base = profile_conc_kernel(module, "mpmc_queue", threads)
        skew = profile_conc_kernel(
            module, "mpmc_queue", threads, MT_SCHEMES["skewed"]
        )
        assert base.sync_points == skew.sync_points
        assert skew.sync_wait_slots > base.sync_wait_slots


class TestStrategies:
    def test_atomic_cuts_bracket_each_atomic(self, queue_profile):
        _m, _t, profile = queue_profile
        scheds = mt.mt_atomic_cuts(profile, stride=1)
        cuts = {s.cuts[0] for s in scheds}
        p = profile.atomic_points[0]
        assert {p - 1, p, p + 1} <= cuts

    def test_interleave_sweep_varies_order(self, queue_profile):
        _m, _t, profile = queue_profile
        scheds = mt.mt_interleave_sweep(profile, stride=31)
        patterns = {tuple(s.interleave) for s in scheds}
        assert len(patterns) > 1
        assert all(s.cuts for s in scheds)

    def test_nested_sweep_cuts_during_recovery(self, queue_profile):
        module, threads, profile = queue_profile
        scheds = mt.mt_nested_sweep(module, threads, profile, 31, 19)
        offsets = {s.cuts[1] for s in scheds if len(s.cuts) > 1}
        assert 0 in offsets, "offset 0 = cut before recovery replays anything"
        assert any(o > 0 for o in offsets), "cuts during recovery replay"


class TestTrials:
    @pytest.mark.parametrize("kernel", ["mpmc_queue", "treiber_stack",
                                        "ticket_counter"])
    @pytest.mark.parametrize("scheme", sorted(MT_SCHEMES))
    def test_single_cut_consistent_everywhere(self, kernel, scheme):
        sched = FaultSchedule(cuts=[40], config=dict(MT_SCHEMES[scheme]))
        record = run_trial(kernel, sched)
        assert record.status == "ok", record.detail

    def test_nested_cut_during_other_threads_recovery(self):
        sched = FaultSchedule(cuts=[60, 2, 1])
        record = run_trial("treiber_stack", sched)
        assert record.status == "ok", record.detail
        assert record.epochs == 3  # one recovery per cut incl. the final

    def test_custom_interleave_trial(self):
        sched = FaultSchedule(cuts=[25, 0], interleave=[1, 0, 1])
        record = run_trial("mpmc_queue", sched)
        assert record.status == "ok", record.detail

    def test_tear_rejected_on_threaded_runs(self):
        module, threads, _d, _o, _g = mt._mt_kernel_context("mpmc_queue")
        with pytest.raises(ValueError, match="cuts/interleave only"):
            run_mt_schedule(module, threads,
                            FaultSchedule(cuts=[], tear=TearSpec(3)))

    def test_unsound_config_is_failure(self):
        sched = FaultSchedule(cuts=[37], config=dict(UNSOUND))
        assert run_trial("mpmc_queue", sched).is_failure


class TestShrinking:
    def test_shrinks_seeded_multicore_bug(self):
        """A 3-cut interleaved schedule under the unsound config fails;
        the shrinker must drop the nested cuts AND the interleave
        dimension while preserving the failure."""
        sched = FaultSchedule(cuts=[97, 5, 3], interleave=[1, 0, 1],
                              config=dict(UNSOUND))
        assert run_trial("treiber_stack", sched).is_failure

        def still_fails(cand):
            return run_trial("treiber_stack", cand).is_failure

        shrunk = shrink_schedule(sched, still_fails, max_evals=150)
        assert run_trial("treiber_stack", shrunk).is_failure
        assert len(shrunk.cuts) == 1
        assert shrunk.interleave == []
        assert shrunk.config  # the unsound config IS the bug; kept

    def test_interleave_dimension_shrinks_alone(self):
        """Oracle pinned to the cut list: the interleave entries must
        shrink away (round-robin is minimal) without touching cuts."""
        sched = FaultSchedule(cuts=[50, 7], interleave=[2, 1])

        def fails_iff_cuts_kept(cand):
            return cand.cuts == [50, 7]

        shrunk = shrink_schedule(sched, fails_iff_cuts_kept, max_evals=60)
        assert shrunk.cuts == [50, 7]
        assert shrunk.interleave == []

    def test_already_minimal_terminates_without_change(self):
        """A 1-cut schedule whose failure needs exactly that cut: every
        candidate fails the oracle, so the loop must terminate with the
        original after one sterile pass."""
        sched = FaultSchedule(cuts=[37])
        evals = [0]

        def only_exact(cand):
            evals[0] += 1
            return cand == sched  # no candidate equals the original

        shrunk = shrink_schedule(sched, only_exact, max_evals=100)
        assert shrunk == sched
        assert evals[0] < 100, "terminated by convergence, not budget"

    def test_budget_exhaustion_keeps_last_accepted(self):
        """With max_evals too small to finish, the shrinker must stop
        at the budget and return the best accepted candidate so far."""
        sched = FaultSchedule(cuts=[80, 9, 4], interleave=[1, 1])
        calls = [0]

        def always_fails(_cand):
            calls[0] += 1
            return True

        shrunk = shrink_schedule(sched, always_fails, max_evals=3)
        assert calls[0] <= 4
        # Three acceptances of the first candidate each round: the cut
        # list lost entries but full convergence was cut short.
        assert len(shrunk.cuts) < 3 or shrunk.interleave != [1, 1]


class TestCampaign:
    def test_smoke_campaign_artifact(self, tmp_path):
        spec = mt_smoke_spec(seed=1)
        spec.kernels = ["ticket_counter"]
        spec.strategies = ["mt-atomic", "mt-nested"]
        artifact = run_campaign(spec, jobs=2)
        assert artifact["meta"]["mode"] == "multicore"
        assert artifact["totals"]["divergent"] == 0
        assert artifact["totals"]["error"] == 0
        assert artifact["divergences"] == []
        # Every (scheme, strategy) cell is populated.
        cells = artifact["per_kernel"]["ticket_counter"]
        assert set(cells) == set(spec.schemes)
        for scheme in spec.schemes:
            assert set(cells[scheme]) == set(spec.strategies)
        # Delay-free account: one entry per kernel x scheme.
        df = artifact["delay_free"]["ticket_counter"]
        assert set(df) == set(spec.schemes)
        for cell in df.values():
            assert cell["sync_points"] > 0
            assert cell["wait_per_sync"] >= 0.0
        # Render + JSON round-trip through the harness report.
        path = tmp_path / "mt.json"
        from repro.faults import write_artifact

        write_artifact(artifact, str(path))
        table = campaign_result(load_campaign(str(path))).format_table()
        assert "ticket_counter" in table and "wait/sync" in table

    def test_profiles_each_kernel_scheme_once(self, monkeypatch):
        """tasks() and the delay-free section share one clean
        profiling run per (kernel, scheme)."""
        calls = []
        real = mt.profile_conc_kernel

        def counting(module, name, *args, **kwargs):
            calls.append(name)
            return real(module, name, *args, **kwargs)

        monkeypatch.setattr(mt, "profile_conc_kernel", counting)
        spec = mt_smoke_spec()
        run_campaign(spec, jobs=1)
        assert len(calls) == len(spec.kernels) * len(spec.schemes) == 9

    def test_records_sorted_by_trial_id(self):
        """Satellite: worker completion order must not leak into the
        artifact -- per-cell counts are stable across jobs counts."""
        spec = MTCampaignSpec(
            kernels=["mpmc_queue"], strategies=["mt-atomic"],
            seed=1, atomic_stride=2,
        )
        seq = run_campaign(spec, jobs=1)
        par = run_campaign(spec, jobs=3)
        assert seq["per_kernel"] == par["per_kernel"]
        assert seq["totals"] == par["totals"]

    def test_build_schedules_covers_grid(self):
        spec = MTCampaignSpec(
            kernels=["mpmc_queue"], strategies=list(MT_STRATEGIES),
            stride=41, stride2=29, atomic_stride=4, boundary_stride=8,
            interleave_stride=61,
        )
        tasks = spec.tasks()
        assert tasks
        schemes_seen = {scheme for _k, (scheme, _strategy), _s in tasks}
        assert schemes_seen == set(MT_SCHEMES)
        # Every schedule pins its scheme config for the repro command,
        # and its cell path ends in its own strategy label.
        for _k, (scheme, strategy), sched in tasks:
            assert strategy == sched.strategy
            assert sched.config == MT_SCHEMES[scheme]
            assert sched.seed == spec.seed

    def test_unknown_strategy_rejected(self):
        spec = MTCampaignSpec(kernels=["mpmc_queue"], strategies=["bogus"])
        with pytest.raises(ValueError, match="bogus"):
            spec.tasks()


class TestCLI:
    def test_multicore_smoke_pass(self, capsys, tmp_path):
        out = tmp_path / "mt.json"
        code = faults_main([
            "--multicore", "--kernels", "ticket_counter",
            "--strategies", "mt-atomic", "--stride", "39", "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "PASS" in text
        artifact = json.loads(out.read_text())
        assert artifact["meta"]["mode"] == "multicore"

    def test_bad_kernel_rejected_up_front(self, capsys):
        with pytest.raises(SystemExit) as exc:
            faults_main(["--multicore", "--kernels", "bogus,mpmc_queue"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "mpmc_queue" in err

    def test_bad_scheme_rejected_up_front(self, capsys):
        with pytest.raises(SystemExit) as exc:
            faults_main(["--multicore", "--schemes", "huge"])
        assert exc.value.code == 2
        assert "skewed" in capsys.readouterr().err

    def test_schemes_flag_requires_multicore(self, capsys):
        with pytest.raises(SystemExit) as exc:
            faults_main(["--schemes", "default"])
        assert exc.value.code == 2
        assert "--multicore" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--k", "3"), ("--torn-stride", "7"),
         ("--corruption-trials", "40"), ("--random-trials", "0")],
    )
    def test_single_core_flags_rejected_under_multicore(self, capsys, flag, value):
        # Legal values, the defaults among them: being given is the error.
        argv = ["--multicore", "--kernels", "ticket_counter",
                "--strategies", "mt-atomic", "--schemes", "default", flag, value]
        with pytest.raises(SystemExit) as exc:
            faults_main(argv)
        assert exc.value.code == 2
        assert f"{flag} only applies to single-core" in capsys.readouterr().err

    def test_singlecore_bad_kernel_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            faults_main(["--kernels", "mpmc_queue"])  # conc kernel, wrong mode
        assert exc.value.code == 2
        assert "counter" in capsys.readouterr().err

    def test_repro_concurrent_kernel(self, capsys):
        code = faults_main([
            "repro", "--kernel", "mpmc_queue",
            "--schedule", '{"cuts": [25, 0], "interleave": [1, 0]}',
        ])
        assert code == 0
        assert "OK: mpmc_queue" in capsys.readouterr().out
