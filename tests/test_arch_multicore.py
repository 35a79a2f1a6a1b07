"""Multi-core timing simulation tests."""

import pytest

from repro.arch import simulate, skylake_machine
from repro.arch.multicore import MulticoreSimulator, simulate_multicore
from repro.schemes import baseline, cwsp
from repro.workloads import PROFILES, generate_trace
from repro.workloads.synthetic import prime_ranges
from tests.sim_oracle import OracleMulticore


def traces(n_cores, n=4000):
    apps = ["radix", "fft", "lu-cg", "ocg", "water-ns", "cholesky", "oncg", "lu-ncg"]
    return [
        generate_trace(PROFILES[apps[i % len(apps)]], n, seed=i, instrument="pruned")
        for i in range(n_cores)
    ]


@pytest.fixture
def machine():
    return skylake_machine(scaled=True)


class TestStructure:
    def test_rejects_zero_cores(self, machine):
        with pytest.raises(ValueError):
            MulticoreSimulator(machine, cwsp(), 0)

    def test_rejects_too_many_traces(self, machine):
        sim = MulticoreSimulator(machine, cwsp(), 2)
        with pytest.raises(ValueError):
            sim.run(traces(3, 100))

    def test_shared_llc_tags(self, machine):
        sim = MulticoreSimulator(machine, cwsp(), 4)
        for core in sim.cores[1:]:
            assert core.hier.levels[1] is sim.cores[0].hier.levels[1]
            assert core.hier.dram is sim.cores[0].hier.dram
            assert core.hier.levels[0] is not sim.cores[0].hier.levels[0]

    def test_shared_wpq(self, machine):
        sim = MulticoreSimulator(machine, cwsp(), 4)
        for core in sim.cores[1:]:
            assert core.wpq is sim.cores[0].wpq


def catalog_cases():
    """Every catalog scheme with its trace instrumentation."""
    from repro.schemes.catalog import (
        ablation_ladder,
        capri,
        ido,
        psp_ideal,
        replaycache,
    )

    cases = [(f().name, f(), "pruned") for f in
             (baseline, cwsp, capri, replaycache, ido, psp_ideal)]
    for stage, scheme, trace_kwargs in ablation_ladder():
        cases.append((f"ladder-{stage}", scheme, trace_kwargs["ckpts"]))
    return cases


class TestFusedLoopIdentity:
    """The fused scheduler must be bit-identical to the per-event
    min-clock stepper of tests/sim_oracle.py -- and, degenerately, to
    the single-core simulator -- for every scheme the catalog
    defines."""

    @pytest.mark.parametrize("packed", [False, True], ids=["legacy", "packed"])
    @pytest.mark.parametrize(
        "scheme,instrument",
        [(s, i) for _, s, i in catalog_cases()],
        ids=[c for c, _, _ in catalog_cases()],
    )
    def test_one_core_bit_identical_to_unicore(
        self, machine, scheme, instrument, packed
    ):
        tr = generate_trace(
            PROFILES["radix"], 1500, seed=5, instrument=instrument, packed=packed
        )
        uni = simulate(tr, machine, scheme)
        multi = MulticoreSimulator(machine, scheme, 1).run([tr])
        assert multi.per_core[0].to_dict() == uni.to_dict()

    @pytest.mark.parametrize(
        "scheme,instrument",
        [(s, i) for _, s, i in catalog_cases()],
        ids=[c for c, _, _ in catalog_cases()],
    )
    def test_fused_loop_matches_reference_stepper(
        self, machine, scheme, instrument
    ):
        apps = ["radix", "fft", "lu-cg", "ocg"]
        packed = [
            generate_trace(
                PROFILES[a], 1500, seed=i, instrument=instrument, packed=True
            )
            for i, a in enumerate(apps)
        ]
        prime = [r for a in apps for r in prime_ranges(PROFILES[a])]
        fused = MulticoreSimulator(machine, scheme, 4)
        fused.prime(prime)
        fstats = fused.run(packed)
        ref = OracleMulticore(machine, scheme, 4)
        ref.prime(prime)
        rstats = ref.run([t.to_events() for t in packed])
        assert [s.to_dict() for s in fstats.per_core] == [
            s.to_dict() for s in rstats.per_core
        ]
        assert fstats.merged().to_dict() == rstats.merged().to_dict()

    def _spy(self, sim, monkeypatch):
        """Record the trace types every ``_schedule`` call receives."""
        calls = []
        orig = sim._schedule

        def spy(traces, *args):
            calls.append([type(t).__name__ for t in traces])
            return orig(traces, *args)

        monkeypatch.setattr(sim, "_schedule", spy)
        return calls

    def test_packed_traces_take_the_fused_path(self, machine, monkeypatch):
        sim = MulticoreSimulator(machine, cwsp(), 2)
        calls = self._spy(sim, monkeypatch)
        tr = [
            generate_trace(
                PROFILES["radix"], 500, seed=i, instrument="pruned", packed=True
            )
            for i in range(2)
        ]
        sim.run(tr)
        assert calls == [["PackedTrace", "PackedTrace"]]

    def test_mixed_traces_take_the_fused_path(self, machine, monkeypatch):
        """Genuine tuple lists (e.g. IR-derived) are packed once at
        entry and share the fused scheduler with packed traces."""
        sim = MulticoreSimulator(machine, cwsp(), 2)
        calls = self._spy(sim, monkeypatch)
        packed = generate_trace(
            PROFILES["radix"], 500, seed=0, instrument="pruned", packed=True
        )
        legacy = list(
            generate_trace(PROFILES["fft"], 500, seed=1, instrument="pruned")
        )
        stats = sim.run([packed, legacy])
        assert stats.insts > 0
        assert calls == [["PackedTrace", "PackedTrace"]]

    def test_view_traces_take_the_fused_path(self, machine, monkeypatch):
        sim = MulticoreSimulator(machine, cwsp(), 2)
        calls = self._spy(sim, monkeypatch)
        packed = generate_trace(
            PROFILES["radix"], 500, seed=0, instrument="pruned", packed=True
        )
        view = generate_trace(PROFILES["fft"], 500, seed=1, instrument="pruned")
        sim.run([packed, view])
        assert calls == [["PackedTrace", "PackedTrace"]]


class TestBehaviour:
    def test_single_core_matches_unicore_sim(self, machine):
        tr = traces(1, 3000)
        multi = simulate_multicore(tr, machine, cwsp())
        uni = simulate(tr[0], machine, cwsp())
        assert multi.cycles == pytest.approx(uni.cycles, rel=1e-9)
        assert multi.insts == uni.insts

    def test_makespan_is_max_core_time(self, machine):
        stats = simulate_multicore(traces(4, 2000), machine, cwsp())
        assert stats.cycles == max(s.cycles for s in stats.per_core)
        assert len(stats.per_core) == 4

    def test_contention_slows_cores_down(self, machine):
        """8 SPLASH cores contending for 2 MCs suffer more WPQ pressure
        than one core alone."""
        tr = traces(8, 3000)
        multi = simulate_multicore(tr, machine, cwsp())
        solo_cycles = [simulate(t, machine, cwsp()).cycles for t in tr]
        assert multi.cycles >= max(solo_cycles) * 0.999
        # summed NVM writes hit the shared controllers
        assert multi.total_nvm_writes == sum(
            simulate(t, machine, cwsp()).nvm_writes for t in tr
        )

    def test_idle_cores_allowed(self, machine):
        stats = simulate_multicore(traces(2, 1000), machine, cwsp(), n_cores=4)
        assert len(stats.per_core) == 4
        assert stats.per_core[3].insts == 0

    def test_priming_shared_levels(self, machine):
        p = PROFILES["radix"]
        tr = [generate_trace(p, 2000, seed=i, instrument="pruned") for i in range(2)]
        with_prime = simulate_multicore(
            tr, machine, cwsp(), prime=prime_ranges(p)
        )
        without = simulate_multicore(tr, machine, cwsp())
        assert with_prime.cycles <= without.cycles * 1.001

    def test_priming_leaves_private_l1s_symmetric(self, machine):
        # Priming warms only the shared levels: two cores running the
        # same trace must see bit-identical private-L1 behaviour (the
        # old code warmed core 0's L1 and left core 1 cold).
        p = PROFILES["radix"]
        tr = [generate_trace(p, 2000, seed=7, instrument="pruned") for _ in range(2)]
        stats = simulate_multicore(tr, machine, cwsp(), prime=prime_ranges(p))
        a, b = (s.l1_miss_rate for s in stats.per_core)
        assert a == b

    def test_wpq_stalls_and_scheme_survive_empty_first_trace(self, machine):
        from dataclasses import replace

        pressured = replace(
            machine,
            wpq_entries=2,
            nvm=replace(machine.nvm, write_bw_gbps=0.05),
        )
        burst = [("s", 0x40000 + 8 * i) for i in range(3000)]
        stats = simulate_multicore([[], burst], pressured, cwsp())
        merged = stats.merged()
        assert merged.scheme == cwsp().name
        assert stats.wpq_full_stalls > 0
        # Derived from the per-core record sets, so the aggregate and
        # the merged view agree regardless of which core was busy.
        assert stats.wpq_full_stalls == merged.wpq_full_stalls

    def test_baseline_multicore_runs(self, machine):
        tr = [t for t in traces(4, 2000)]
        plain = [
            [e for e in t if e[0] not in ("b", "c")] for t in tr
        ]
        stats = simulate_multicore(plain, machine, baseline())
        assert stats.cycles > 0
