"""The intermittent-power failure model (``repro.faults.power``)."""

import pytest

from repro.arch.config import skylake_machine
from repro.arch.machine import simulate
from repro.faults.__main__ import main as faults_main
from repro.faults.power import (
    PowerCampaignSpec,
    PowerTrace,
    power_smoke_spec,
    run_intermittent,
    run_power_campaign,
)
from repro.schemes.catalog import baseline, cwsp
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_trace, prime_ranges

APP = "astar"


@pytest.fixture(scope="module")
def machine():
    return skylake_machine(scaled=True)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(PROFILES[APP], 4_000, seed=3, instrument="pruned", packed=True)


@pytest.fixture(scope="module")
def prime():
    return prime_ranges(PROFILES[APP])


@pytest.fixture(scope="module")
def cycles(machine, trace, prime):
    """Uninterrupted cycle count per scheme."""
    return {
        scheme.name: simulate(trace, machine, scheme, prime=prime).cycles
        for scheme in (baseline(), cwsp())
    }


class TestPowerModel:
    def test_supply_deterministic(self):
        a = PowerTrace(on_cycles=1_000.0, seed=7).intervals()
        b = PowerTrace(on_cycles=1_000.0, seed=7).intervals()
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]
        flat = PowerTrace(on_cycles=1_000.0, jitter=0.0).intervals()
        assert [next(flat) for _ in range(3)] == [1_000.0] * 3

    def test_baseline_never_commits(self, machine, trace, prime, cycles):
        power = PowerTrace(
            on_cycles=0.25 * cycles[baseline().name],
            recovery_cycles=200.0, seed=1,
        )
        res = run_intermittent(trace, machine, baseline(), power, prime=prime)
        assert res.stalled and not res.completed
        assert res.committed_events == 0
        assert res.forward_progress == 0.0
        assert res.attempted_events > 0

    def test_persisting_scheme_completes_on_generous_supply(
        self, machine, trace, prime, cycles
    ):
        golden = cycles[cwsp().name]
        power = PowerTrace(on_cycles=4.0 * golden, jitter=0.0, seed=1)
        res = run_intermittent(
            trace, machine, cwsp(), power, prime=prime,
            uninterrupted_cycles=golden,
        )
        assert res.completed and not res.stalled
        assert res.n_intervals == 1
        assert res.forward_progress == 1.0
        assert res.reexec_overhead == 0.0
        assert res.slowdown(duty=1.0) <= 4.0

    def test_smoke_campaign_invariants(self):
        artifact = run_power_campaign(power_smoke_spec())
        assert artifact["violations"] == []
        spec = power_smoke_spec()
        expected = (
            len(spec.apps) * len(spec.schemes)
            * len(spec.on_fracs) * len(spec.duties)
        )
        assert artifact["totals"]["points"] == expected
        rows = artifact["rows"]
        for row in rows:
            assert 0.0 <= row["forward_progress"] <= 1.0
            if row["scheme"] == "baseline":
                assert row["forward_progress"] == 0.0
        assert any(
            row["completed"] for row in rows if row["scheme"] != "baseline"
        )


class TestCLI:
    @pytest.mark.parametrize(
        "flag, value",
        [("--apps", "astar"), ("--schemes", "cwsp"), ("--on-fracs", "0.1"),
         ("--duties", "0.5"), ("--n-insts", "4000"), ("--recovery-cycles", "200")],
    )
    def test_spec_flags_rejected_with_smoke(self, capsys, flag, value):
        # The defaults among the values: being given is the error.
        with pytest.raises(SystemExit) as exc:
            faults_main(["--power-trace", "--smoke", flag, value])
        assert exc.value.code == 2
        assert f"{flag} cannot be combined with --smoke" in capsys.readouterr().err

    def test_smoke_keeps_seed_and_out(self, monkeypatch, tmp_path):
        import repro.faults.power as power

        def capture(spec, log):
            raise RuntimeError(spec)

        monkeypatch.setattr(power, "run_power_campaign", capture)
        argv = ["--power-trace", "--smoke", "--seed", "4", "--out", str(tmp_path / "a")]
        with pytest.raises(RuntimeError) as exc:
            faults_main(argv)
        assert exc.value.args[0] == power_smoke_spec(seed=4)

    def test_unset_numbers_take_the_spec_defaults(self, monkeypatch):
        import repro.faults.power as power

        def capture(spec, log):
            raise RuntimeError(spec)

        monkeypatch.setattr(power, "run_power_campaign", capture)
        with pytest.raises(RuntimeError) as exc:
            faults_main(["--power-trace"])
        assert exc.value.args[0] == PowerCampaignSpec()
