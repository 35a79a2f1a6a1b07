"""Checkpoint protocol: cut-anywhere identity and stream determinism.

The contract under test is the PR's core invariant: a run cut at an
arbitrary cycle or event budget, serialized through canonical JSON,
and resumed into a fresh simulator must finish with metric dicts
byte-identical to the uninterrupted run -- for every scheme, unicore
and multicore, whether the trace rides inside the checkpoint (a
resumable :class:`SyntheticStream`) or is re-supplied externally.
"""

import json
from pathlib import Path

import pytest

from repro.arch.checkpoint import (
    CheckpointableRun,
    MulticoreCheckpointableRun,
    SimCheckpoint,
)
from repro.arch.config import skylake_machine
from repro.arch.machine import TimingSimulator, simulate
from repro.arch.multicore import simulate_multicore
from repro.arch.queues import CompletionQueue
from repro.arch.trace import PackedTrace
from repro.faults.power import (
    PowerTrace,
    power_smoke_spec,
    run_intermittent,
    run_power_campaign,
)
from repro.harness.engine import CheckpointPolicy, compute_point
from repro.harness.spec import MulticorePoint, SimPoint
from repro.schemes.catalog import baseline, capri, cwsp, replaycache
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import (
    _GEN_BLOCK,
    SyntheticStream,
    generate_trace,
    prime_ranges,
)

APP = "astar"
N_INSTS = 4_000
SEED = 3

SCHEME_FACTORIES = {
    "baseline": baseline,
    "cwsp": cwsp,
    "capri": capri,
    "replaycache": replaycache,
}

#: Content hash of the golden-sized astar stream (the exact trace the
#: golden-identity suite simulates).  Any generator change that moves
#: this pin moves every golden; it must only change deliberately.
GOLDEN_STREAM_DIGEST = (
    "062ea8d28a47fdfc84b7e1f79b792f74e242e2328469ad17aa01ca461b868acd"
)

#: Same pin for a stream spanning three internal generation blocks --
#: guards the carried-state handoff (sweep pointers, burst state,
#: instrumentation RNG) across block boundaries.
MULTIBLOCK_N_INSTS = 2 * _GEN_BLOCK + 12_345
MULTIBLOCK_STREAM_DIGEST = (
    "9d417615a70fb060a95d53f4b49d8b9c3fffff426c8919c0952f9993b45ab14c"
)


@pytest.fixture(scope="module")
def machine():
    return skylake_machine(scaled=True)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        PROFILES[APP], N_INSTS, seed=SEED, instrument="pruned", packed=True
    )


@pytest.fixture(scope="module")
def prime():
    return prime_ranges(PROFILES[APP])


@pytest.fixture(scope="module")
def goldens(machine, trace, prime):
    """Uninterrupted reference stats per scheme (fused fast path)."""
    out = {}
    for name, factory in SCHEME_FACTORIES.items():
        stats = simulate(trace, machine, factory(), prime=prime)
        out[name] = {"cycles": stats.cycles, "metrics": stats.metrics.to_dict()}
    return out


def _fresh_stream(n_insts=N_INSTS):
    return SyntheticStream(PROFILES[APP], n_insts, seed=SEED, instrument="pruned")


# ----------------------------------------------------------------------
# Stream determinism and chunk-size independence
# ----------------------------------------------------------------------
class TestStreamDeterminism:
    def test_golden_stream_digest_pinned(self, trace):
        assert trace.digest() == GOLDEN_STREAM_DIGEST

    def test_multiblock_digest_and_chunk_independence(self):
        """Whole-trace and chunk-at-a-time consumption emit one stream.

        The generation block is an internal constant, so block
        boundaries fall in the same places no matter how the consumer
        drains the stream; the concatenated chunks hash to the same
        pinned digest as the one-shot trace.
        """
        whole = generate_trace(
            PROFILES[APP], MULTIBLOCK_N_INSTS, seed=SEED,
            instrument="pruned", packed=True,
        )
        assert whole.digest() == MULTIBLOCK_STREAM_DIGEST
        chunks = list(_fresh_stream(MULTIBLOCK_N_INSTS))
        assert len(chunks) == 3
        assert PackedTrace.concat(chunks).digest() == MULTIBLOCK_STREAM_DIGEST
        # Bounded memory: no chunk materializes more than one generation
        # block of instructions (plus instrumentation events).
        assert all(len(c) <= 2 * _GEN_BLOCK for c in chunks)

    def test_snapshot_restore_regenerates_remainder(self):
        """A stream restored from a JSON-round-tripped snapshot emits
        the remaining chunks bit-identically, without the prefix."""
        original = _fresh_stream(MULTIBLOCK_N_INSTS)
        first = original.next_chunk()
        assert first is not None
        state = json.loads(json.dumps(original.snapshot()))
        rest = list(original)

        resumed = SyntheticStream.from_spec(original.spec())
        resumed.restore(state)
        assert list(resumed) == rest

    def test_spec_round_trip(self):
        a = _fresh_stream()
        b = SyntheticStream.from_spec(a.spec())
        assert list(a) == list(b)

    def test_run_stream_matches_run(self, machine, prime):
        """Chunk-at-a-time consumption (the bounded-memory 10^7+-event
        path) finishes with stats identical to the one-shot run."""
        spec = dict(_fresh_stream().spec(), block=1_000)
        whole = PackedTrace.concat(list(SyntheticStream.from_spec(spec)))

        ref = TimingSimulator(machine, cwsp())
        ref.hier.prime(list(prime))
        golden = ref.run(whole)

        sim = TimingSimulator(machine, cwsp())
        sim.hier.prime(list(prime))
        stats = sim.run_stream(SyntheticStream.from_spec(spec))
        assert stats.to_dict() == golden.to_dict()


# ----------------------------------------------------------------------
# Component snapshot/restore round trips
# ----------------------------------------------------------------------
class TestComponentRoundTrips:
    def test_completion_queue(self):
        q = CompletionQueue(8)
        t = 0.0
        for _ in range(50):
            t = q.admit(t + 0.5)
            q.push(t + 12.0)
        state = json.loads(json.dumps(q.snapshot()))

        q2 = CompletionQueue(8)
        q2.restore_state(state)
        assert q2.snapshot() == q.snapshot()
        for queue in (q, q2):
            u = t
            for _ in range(20):
                u = queue.admit(u + 0.5)
                queue.push(u + 12.0)
        assert q2.snapshot() == q.snapshot()

    def test_machine_snapshot_round_trip(self, machine, trace, prime):
        """Mid-run simulator state survives JSON and finishes identically."""
        ref = TimingSimulator(machine, cwsp())
        ref.hier.prime(list(prime))
        cut = ref.run_until(trace, 2_000.0)
        state = json.loads(json.dumps(ref.snapshot()))

        other = TimingSimulator(machine, cwsp())
        other.restore_state(state)
        assert other.snapshot() == ref.snapshot()

        ref.run_until(trace, float("inf"), start=cut)
        other.run_until(trace, float("inf"), start=cut)
        assert other.finalize().to_dict() == ref.finalize().to_dict()

    def test_checkpoint_version_gate(self):
        blob = json.dumps({"version": 999, "kind": "unicore"})
        with pytest.raises(ValueError):
            SimCheckpoint.from_json(blob)


# ----------------------------------------------------------------------
# Cut-anywhere identity (unicore)
# ----------------------------------------------------------------------
class TestCutAnywhereIdentity:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize("frac", [0.35, 0.75])
    def test_cycle_cut_resumes_bit_identical(
        self, machine, goldens, scheme_name, frac
    ):
        factory = SCHEME_FACTORIES[scheme_name]
        golden = goldens[scheme_name]
        run = CheckpointableRun(
            machine, factory(), stream=_fresh_stream(),
            prime=prime_ranges(PROFILES[APP]),
        )
        run.run_to_cycle(frac * golden["cycles"])
        assert not run.done

        blob = run.checkpoint().to_json()
        resumed = CheckpointableRun.resume(
            SimCheckpoint.from_json(blob), machine, factory()
        )
        stats = resumed.run_to_end()
        assert stats.metrics.to_dict() == golden["metrics"]

    def test_event_budget_relay(self, machine, goldens):
        """Checkpoint + resume between every 700-event slice: the whole
        run is a relay of resumed simulators, still bit-identical."""
        run = CheckpointableRun(
            machine, cwsp(), stream=_fresh_stream(),
            prime=prime_ranges(PROFILES[APP]),
        )
        while True:
            run.run_for_events(700)
            if run.done:
                break
            blob = run.checkpoint().to_json()
            run = CheckpointableRun.resume(
                SimCheckpoint.from_json(blob), machine, cwsp()
            )
        stats = run.run_to_end()
        assert stats.metrics.to_dict() == goldens["cwsp"]["metrics"]

    def test_external_trace_checkpoint(self, machine, trace, prime, goldens):
        """External traces resume from digest-validated re-supply."""
        run = CheckpointableRun(machine, cwsp(), trace=trace, prime=prime)
        run.run_for_events(1_500)
        ckpt = run.checkpoint()
        resumed = CheckpointableRun.resume(ckpt, machine, cwsp(), trace=trace)
        assert resumed.run_to_end().metrics.to_dict() == goldens["cwsp"]["metrics"]

        with pytest.raises(ValueError):
            CheckpointableRun.resume(ckpt, machine, cwsp())  # no trace
        other = generate_trace(
            PROFILES[APP], N_INSTS, seed=SEED + 1, instrument="pruned", packed=True
        )
        with pytest.raises(ValueError):
            CheckpointableRun.resume(ckpt, machine, cwsp(), trace=other)

    def test_scheme_mismatch_rejected(self, machine):
        run = CheckpointableRun(
            machine, cwsp(), stream=_fresh_stream(),
            prime=prime_ranges(PROFILES[APP]),
        )
        run.run_for_events(1_000)
        ckpt = run.checkpoint()
        with pytest.raises(ValueError):
            CheckpointableRun.resume(ckpt, machine, capri())


# ----------------------------------------------------------------------
# Cut-anywhere identity (multicore)
# ----------------------------------------------------------------------
class TestMulticoreCheckpoint:
    APPS = ("astar", "bzip2")

    def _traces(self):
        return [
            generate_trace(
                PROFILES[a], 2_000, seed=SEED + i, instrument="pruned", packed=True
            )
            for i, a in enumerate(self.APPS)
        ]

    def _prime(self):
        return [r for a in self.APPS for r in prime_ranges(PROFILES[a])]

    @pytest.mark.parametrize("scheme_name", ["baseline", "cwsp"])
    def test_cycle_cut_resumes_bit_identical(self, machine, scheme_name):
        factory = SCHEME_FACTORIES[scheme_name]
        traces = self._traces()
        golden = simulate_multicore(
            traces, machine, factory(), len(traces), prime=self._prime()
        )
        run = MulticoreCheckpointableRun(
            machine, factory(), traces, prime=self._prime()
        )
        run.run_to_cycle(0.5 * golden.cycles)
        assert not run.done

        blob = run.checkpoint().to_json()
        resumed = MulticoreCheckpointableRun.resume(
            SimCheckpoint.from_json(blob), machine, factory(), traces
        )
        stats = resumed.run_to_end()
        assert stats.merged().to_dict() == golden.merged().to_dict()


# ----------------------------------------------------------------------
# Harness integration: CheckpointPolicy and resume
# ----------------------------------------------------------------------
class TestHarnessCheckpoint:
    def _point(self, machine):
        return SimPoint(
            app=APP, scheme=cwsp(), machine=machine,
            instrument="pruned", n_insts=2_000, seed=SEED,
        )

    @pytest.mark.parametrize("every", [0, -5])
    def test_policy_rejects_cuts_below_one_event(self, tmp_path, every):
        # A cut of zero events executes nothing, so the point never ends.
        with pytest.raises(ValueError, match="at least 1"):
            CheckpointPolicy(dir=str(tmp_path), every=every)

    def test_checkpointed_point_matches_direct(self, machine, tmp_path):
        point = self._point(machine)
        direct = compute_point(point)
        policy = CheckpointPolicy(dir=str(tmp_path), every=500)
        via = compute_point(point, checkpoint=policy, key="k1")
        assert via.to_dict() == direct.to_dict()
        assert not policy.path_for("k1").exists()  # cleaned on completion

    def test_resume_from_on_disk_checkpoint(self, machine, tmp_path):
        point = self._point(machine)
        direct = compute_point(point)
        policy = CheckpointPolicy(dir=str(tmp_path), every=600, resume=True)
        # Simulate an interrupted worker: cut mid-run, persist, abandon.
        run = CheckpointableRun(
            machine, point.scheme,
            stream=SyntheticStream(
                PROFILES[point.app], point.n_insts, point.seed, point.instrument
            ),
            prime=prime_ranges(PROFILES[point.app]),
        )
        run.run_for_events(800)
        run.checkpoint().save(policy.path_for("k2"))

        via = compute_point(point, checkpoint=policy, key="k2")
        assert via.to_dict() == direct.to_dict()
        assert not policy.path_for("k2").exists()

    def test_failed_save_keeps_previous_checkpoint(
        self, machine, tmp_path, monkeypatch
    ):
        """A save that dies partway (a killed worker, a full disk)
        leaves the previous checkpoint's bytes in place."""
        path = tmp_path / "k4.ckpt.json"
        run = CheckpointableRun(
            machine, cwsp(), stream=_fresh_stream(),
            prime=prime_ranges(PROFILES[APP]),
        )
        run.run_for_events(500)
        run.checkpoint().save(path)
        good = path.read_bytes()
        run.run_for_events(500)

        def torn_write(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as f:
                f.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            run.checkpoint().save(path)
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]

    def test_multicore_point_matches_direct(self, machine, tmp_path):
        point = MulticorePoint(
            apps=("astar", "bzip2"), prime_apps=("astar", "bzip2"),
            scheme=cwsp(), machine=machine, instrument="pruned",
            n_insts=1_500, seed=SEED,
        )
        direct = compute_point(point)
        policy = CheckpointPolicy(dir=str(tmp_path), every=700)
        via = compute_point(point, checkpoint=policy, key="k3")
        assert via.to_dict() == direct.to_dict()


# ----------------------------------------------------------------------
# The intermittent-power failure model
# ----------------------------------------------------------------------
class TestPowerModel:
    def test_supply_deterministic(self):
        a = PowerTrace(on_cycles=1_000.0, seed=7).intervals()
        b = PowerTrace(on_cycles=1_000.0, seed=7).intervals()
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]
        flat = PowerTrace(on_cycles=1_000.0, jitter=0.0).intervals()
        assert [next(flat) for _ in range(3)] == [1_000.0] * 3

    def test_baseline_never_commits(self, machine, trace, prime, goldens):
        power = PowerTrace(
            on_cycles=0.25 * goldens["baseline"]["cycles"],
            recovery_cycles=200.0, seed=1,
        )
        res = run_intermittent(trace, machine, baseline(), power, prime=prime)
        assert res.stalled and not res.completed
        assert res.committed_events == 0
        assert res.forward_progress == 0.0
        assert res.attempted_events > 0

    def test_persisting_scheme_completes_on_generous_supply(
        self, machine, trace, prime, goldens
    ):
        power = PowerTrace(
            on_cycles=4.0 * goldens["cwsp"]["cycles"], jitter=0.0, seed=1
        )
        res = run_intermittent(
            trace, machine, cwsp(), power, prime=prime,
            uninterrupted_cycles=goldens["cwsp"]["cycles"],
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
