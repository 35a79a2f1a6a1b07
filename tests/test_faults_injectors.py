"""Fault-injection mechanics: torn persists, storage corruption with
checksum detection, nested-crash epochs, and the graceful-degradation
contract (never a silent wrong answer)."""

import pytest

from repro.compiler import compile_module
from repro.faults import (
    FaultSchedule,
    FlipSpec,
    ProbeHook,
    TearSpec,
    TornPersistInjector,
    apply_flip,
    resume_epoch,
    run_schedule,
)
from repro.recovery import (
    DegradedRecovery,
    PersistenceConfig,
    ThreadedExecution,
    assess_damage,
    recover_checked,
    run_with_failure,
    word_checksum,
)
from repro.recovery.failure import sampled_points
from repro.workloads.programs import build_conc_kernel, build_kernel
from tests.conftest import build_call_chain


@pytest.fixture(scope="module")
def counter():
    module, entry, args = build_kernel("counter")
    compile_module(module)
    ref_model, completed, ref_state = run_with_failure(module, None, entry, args)
    assert completed
    return module, entry, args, list(ref_model.released_output), ref_state.memory


def _run(counter, schedule):
    module, entry, args, _, _ = counter
    return run_schedule(module, entry, args, schedule)


class TestChecksums:
    def test_word_checksum_deterministic(self):
        assert word_checksum(0x1000, 42) == word_checksum(0x1000, 42)

    def test_word_checksum_sensitive(self):
        base = word_checksum(0x1000, 42)
        assert word_checksum(0x1000, 43) != base
        assert word_checksum(0x1008, 42) != base
        assert word_checksum(0x1000, 42, salt=7) != base

    def test_negative_values_hash(self):
        # Stored old-values are signed 64-bit; hashing must accept them.
        assert 0 <= word_checksum(0x1000, -5) < (1 << 16)


class TestTornPersists:
    def test_tear_never_silently_wrong(self, counter):
        module, entry, args, ref_output, ref_memory = counter
        for idx in (1, 5, 20):
            out = _run(counter, FaultSchedule(tear=TearSpec(idx)))
            assert out.status in ("recovered", "degraded"), out.status
            if out.status == "recovered":
                assert out.output == ref_output
                assert out.memory == ref_memory

    def test_tear_hook_fires_and_cuts(self, counter):
        module, entry, args, _, _ = counter
        hook = TornPersistInjector(3)
        model, completed, _ = run_with_failure(
            module, None, entry, args, fault_hook=hook
        )
        assert hook.fired and not completed
        assert model.fault_hook is None  # disarmed after the cut too
        # The torn word's ECC was computed over the intended value, so a
        # checked image must notice *something* unless the undo log
        # healed it (logged tear: revert rewrites the full old value).
        image = model.failure_image_checked()
        assert not image.damaged_log_entries  # tears never damage the log

    def test_tear_lands_on_final_drain(self, counter):
        # The hook stays armed through finish(): the program's very last
        # MC apply, drained after the final instruction, can be torn.
        module, entry, args, _, _ = counter
        # No background drain: the last stores wait in the PB for finish().
        config = PersistenceConfig(drain_per_step=0.0)
        ref, completed, _ = run_with_failure(module, None, entry, args, config)
        assert completed and not ref.pb  # every store was applied once
        hook = TornPersistInjector(ref.stores_seen)
        model, completed, _ = run_with_failure(
            module, None, entry, args, config, fault_hook=hook
        )
        assert hook.fired and not completed
        assert model.events_seen == ref.events_seen  # torn after the last event

    def test_probe_hook_counts_applies(self, counter):
        module, entry, args, _, _ = counter
        hook = ProbeHook()
        model, completed, _ = run_with_failure(
            module, None, entry, args, fault_hook=hook
        )
        assert completed
        assert hook.applies > 0
        assert model.fault_hook is None  # disarmed after the epoch
        model, completed, _ = run_with_failure(
            module, 50, entry, args, fault_hook=ProbeHook()
        )
        assert not completed
        assert model.fault_hook is None  # and after an event-count cut


class TestStorageCorruption:
    def test_log_flip_detected_and_degrades(self, counter):
        module, entry, args, _, _ = counter
        model, completed, _ = run_with_failure(module, 50, entry, args)
        assert not completed
        victim = apply_flip(model, FlipSpec("log", 0, 5))
        assert victim is not None and "log entry" in victim
        image = model.failure_image_checked()
        assert image.damaged_log_entries
        degraded = assess_damage(module, model, image)
        assert isinstance(degraded, DegradedRecovery)
        assert degraded.action == "restart"
        assert "undo-log" in degraded.reason

    def test_ckpt_flip_detected(self, counter):
        module, entry, args, _, _ = counter
        model, completed, _ = run_with_failure(module, 50, entry, args)
        assert not completed
        victim = apply_flip(model, FlipSpec("ckpt", 2, 13))
        assert victim is not None and "checkpoint word" in victim
        result = recover_checked(module, model, entry, args)
        assert isinstance(result, DegradedRecovery)
        assert result.damaged_words

    def test_flip_on_empty_population_is_noop(self, counter):
        module, entry, args, _, _ = counter
        # Cut before anything persists: no logs survive to corrupt.
        model, completed, _ = run_with_failure(module, 1, entry, args)
        assert not completed
        if not model.logs:
            assert apply_flip(model, FlipSpec("log", 0, 0)) is None

    def test_corruption_never_silent(self, counter):
        module, entry, args, ref_output, ref_memory = counter
        for bit in (0, 17, 63):
            out = _run(
                counter,
                FaultSchedule(cuts=[60], flip=FlipSpec("log", bit, bit)),
            )
            assert out.status in ("recovered", "degraded")
            if out.status == "recovered":
                assert out.output == ref_output and out.memory == ref_memory
            else:
                assert out.degraded is not None


class TestNestedCrashes:
    def test_cut_during_recovery_is_idempotent(self, counter):
        module, entry, args, _, _ = counter
        model, completed, _ = run_with_failure(module, 60, entry, args)
        assert not completed
        ptr = model.recovery_ptr
        out = resume_epoch(module, model, 0, entry, args, None)
        assert out.kind == "cut"
        # Offset-0 cut: recovery wrote nothing persistent, so the next
        # epoch faces the same recovery boundary (the region seq is
        # re-keyed by the fresh model, but (func, uid) is pinned and a
        # carried-over snapshot exists for it).
        assert out.model.recovery_ptr[:2] == ptr[:2]
        assert out.model.recovery_ptr[2] in out.model.snapshots

    def test_repeated_recovery_cuts_converge(self, counter):
        module, entry, args, ref_output, ref_memory = counter
        out = _run(counter, FaultSchedule(cuts=[60, 0, 0, 0]))
        assert out.status == "recovered"
        assert out.output == ref_output
        assert out.memory == ref_memory
        assert out.epochs == 4

    def test_nested_cut_mid_resume(self, counter):
        module, entry, args, ref_output, ref_memory = counter
        for cuts in ([60, 5], [60, 5, 3], [30, 7, 0, 2]):
            out = _run(counter, FaultSchedule(cuts=cuts))
            assert out.status == "recovered", cuts
            assert out.output == ref_output, cuts
            assert out.memory == ref_memory, cuts

    def test_cut_beyond_end_completes(self, counter):
        module, entry, args, ref_output, _ = counter
        out = _run(counter, FaultSchedule(cuts=[10_000_000]))
        assert out.status == "completed"
        assert out.output == ref_output


class TestCutCounting:
    """One driver counts every cut: the cut fires after exactly *k*
    counted events, and argument spills count on the single-core paths
    (the threaded runs spill ahead of the counter)."""

    def test_cut_leaves_exactly_k_events(self, counter):
        module, entry, args, _, _ = counter
        ref, completed, _ = run_with_failure(module, None, entry, args)
        assert completed
        total = ref.events_seen
        for k in sampled_points(total, 37):
            model, completed, _ = run_with_failure(module, k, entry, args)
            assert not completed, k
            assert model.events_seen == k

    def test_threaded_cut_reports_k_events(self):
        module, threads, _digest = build_conc_kernel("mpmc_queue")
        compile_module(module)
        execu = ThreadedExecution(module, threads)
        ref = execu.run()
        assert ref.completed and ref.events > 0
        spills = sum(len(module.get(t.entry).params) for t in threads)
        assert spills > 0
        for k in sampled_points(ref.events, 23):
            run = execu.run(fail_after_event=k)
            assert not run.completed, k
            assert run.events == k
            assert run.model.events_seen == k + spills  # spilled ahead of the count

    def test_restart_epoch_counts_respilled_args(self):
        module = build_call_chain()
        compile_module(module)
        config = PersistenceConfig(drain_per_step=0.0)
        entry, args = "double", (21,)
        ref, completed, _ = run_with_failure(module, None, entry, args, config)
        assert completed
        model, completed, _ = run_with_failure(module, 1, entry, args, config)
        assert not completed and model.recovery_ptr is None  # restart branch
        # The restarted run re-spills the argument: that is event 1.
        out = resume_epoch(module, model, 1, entry, args, config)
        assert out.kind == "cut" and out.events == 1
        assert out.model.events_seen == 1
        out = resume_epoch(module, model, None, entry, args, config)
        assert out.kind == "completed"
        assert out.events == ref.events_seen
