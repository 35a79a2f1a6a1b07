"""RecoveryError paths in the recovery protocol, and the checker-sweep
guarantees: the reference runs under the model, the final committed
event is always a failure point, and uninjectable points are reported
rather than silently dropped."""

import pytest

from repro.compiler import compile_module
from repro.ir.interpreter import CKPT_BASE
from repro.recovery import (
    PersistenceConfig,
    RecoveryError,
    check_crash_consistency,
    recover_and_resume,
    run_with_failure,
)
from tests.conftest import build_call_chain, build_rmw_loop


@pytest.fixture
def compiled_loop():
    module = build_rmw_loop()
    compile_module(module)
    return module


def _failed_model_with_ptr(module, point=60):
    model, completed, _ = run_with_failure(module, point)
    assert not completed
    assert model.recovery_ptr is not None, "need a failure point past first retirement"
    return model


class TestRecoveryErrorPaths:
    def test_missing_recovery_slice(self, compiled_loop):
        model = _failed_model_with_ptr(compiled_loop)
        func, uid, _seq = model.recovery_ptr
        del compiled_loop.recovery_slices[(func, uid)]
        with pytest.raises(RecoveryError, match="no recovery slice"):
            recover_and_resume(compiled_loop, model)

    def test_missing_boundary_snapshot(self, compiled_loop):
        model = _failed_model_with_ptr(compiled_loop)
        model.snapshots.clear()
        with pytest.raises(RecoveryError, match="no boundary snapshot"):
            recover_and_resume(compiled_loop, model)

    def test_rs_oracle_validation_mismatch(self, compiled_loop):
        model = _failed_model_with_ptr(compiled_loop)
        func, uid, seq = model.recovery_ptr
        rslice = compiled_loop.recovery_slices[(func, uid)]
        # Corrupt exactly the slots this slice restores from, in the
        # surviving image (post-revert values feed the slice).
        oracle = model.snapshots[seq].frames[-1].regs
        corrupted = False
        for op in rslice.ops:
            if op[0] != "restore":
                continue
            reg = op[1]
            slot = compiled_loop.ckpt_slots[(func, reg.name)]
            addr = CKPT_BASE + slot * 8
            bad = (oracle.get(reg, 0) + 1) & 0xFFFF
            model.nvm[addr] = bad
            # Make sure no surviving undo log reverts our corruption.
            for log in model.logs.values():
                log[:] = [e for e in log if e[0] != addr]
            corrupted = True
        assert corrupted, "recovery slice restores nothing -- bad fixture"
        with pytest.raises(RecoveryError, match="RS restored"):
            recover_and_resume(compiled_loop, model, validate=True)

    def test_restart_argument_mismatch(self, compiled_loop):
        model, completed, _ = run_with_failure(
            compiled_loop, 2, config=PersistenceConfig(drain_per_step=0.0)
        )
        assert not completed and model.recovery_ptr is None
        with pytest.raises(RecoveryError, match="takes 0 args"):
            recover_and_resume(compiled_loop, model, args=(1, 2))


class TestCheckerSweep:
    def test_reference_runs_under_model(self, compiled_loop):
        # Pin the intended semantics: the reference output is what the
        # persistence model *releases* on a failure-free run.
        ref_model, completed, _ = run_with_failure(compiled_loop, None)
        assert completed
        report = check_crash_consistency(compiled_loop, stride=13)
        assert report.reference_output == list(ref_model.released_output)
        assert report.total_events == ref_model.events_seen

    def test_final_event_always_checked(self, compiled_loop):
        # A stride that does not divide the event count must still
        # inject at the very last committed event.
        report = check_crash_consistency(compiled_loop, stride=1_000_000)
        assert report.ok, report.divergences[:3]
        assert report.points_checked == 2  # event 1 and the final event
        assert not report.skipped_points

    def test_no_skipped_points_on_clean_sweep(self, compiled_loop):
        report = check_crash_consistency(compiled_loop, stride=7)
        assert report.ok
        assert report.skipped_points == []

    def test_skipped_points_reported_in_summary(self):
        from repro.recovery.checker import ConsistencyReport

        report = ConsistencyReport(total_events=10)
        report.skipped_points.append(10)
        assert "skipped" in report.summary()

    def test_call_chain_exhaustive(self):
        module = build_call_chain()
        compile_module(module)
        report = check_crash_consistency(module, stride=1)
        assert report.ok, report.divergences[:3]
        # stride=1 covers every event; the last one included.
        assert report.points_checked == report.total_events
