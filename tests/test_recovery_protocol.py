"""Recovery protocol and end-to-end crash-consistency checker."""

import pytest

from repro.compiler import compile_module
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


class TestRunWithFailure:
    def test_no_plan_completes(self, compiled_loop):
        model, completed, state = run_with_failure(compiled_loop, None)
        assert completed and state is not None
        assert state.output == [15]

    def test_failure_interrupts(self, compiled_loop):
        model, completed, state = run_with_failure(compiled_loop, 10)
        assert not completed and state is None

    def test_failure_beyond_end_completes(self, compiled_loop):
        model, completed, _ = run_with_failure(compiled_loop, 10**9)
        assert completed


class TestRecoverAndResume:
    def test_early_failure_restarts(self, compiled_loop):
        model, completed, _ = run_with_failure(
            compiled_loop, 2, config=PersistenceConfig(drain_per_step=0.0)
        )
        assert not completed
        result = recover_and_resume(compiled_loop, model)
        assert result.recovery_ptr is None  # nothing retired: full restart
        assert result.output == [15]

    def test_mid_failure_resumes_from_region(self, compiled_loop):
        model, completed, _ = run_with_failure(compiled_loop, 60)
        assert not completed
        result = recover_and_resume(compiled_loop, model)
        assert result.output == [15]
        assert result.recovery_ptr is not None
        assert result.resumed_steps > 0

    def test_restored_registers_validated_against_oracle(self, compiled_loop):
        model, completed, _ = run_with_failure(compiled_loop, 60)
        result = recover_and_resume(compiled_loop, model, validate=True)
        # validation happened inside; restored regs exist for live-ins
        if result.recovery_ptr is not None:
            assert result.restored_regs

    def test_corrupted_slot_detected(self, compiled_loop):
        from repro.ir.interpreter import CKPT_BASE

        model, completed, _ = run_with_failure(compiled_loop, 80)
        assert not completed
        if model.recovery_ptr is None:
            pytest.skip("failure too early to exercise slot validation")
        # corrupt every checkpoint slot in the surviving NVM image
        corrupted = False
        for (fname, _), slot in compiled_loop.ckpt_slots.items():
            addr = CKPT_BASE + slot * 8
            if addr in model.nvm:
                model.nvm[addr] = 0x5EED
                corrupted = True
        if not corrupted:
            pytest.skip("no persisted slots at this failure point")
        with pytest.raises(RecoveryError):
            recover_and_resume(compiled_loop, model, validate=True)


class TestChecker:
    def test_loop_fully_consistent(self, compiled_loop):
        report = check_crash_consistency(compiled_loop, stride=3)
        assert report.ok, report.divergences[:3]
        assert report.points_checked > 20

    def test_call_chain_consistent(self):
        module = build_call_chain()
        compile_module(module)
        report = check_crash_consistency(module, stride=1)
        assert report.ok, report.divergences[:3]

    def test_summary_mentions_status(self, compiled_loop):
        report = check_crash_consistency(compiled_loop, stride=11)
        assert "OK" in report.summary()

    @pytest.mark.parametrize(
        "config",
        [
            PersistenceConfig(drain_per_step=0.1, mc_skew=(0, 5)),
            PersistenceConfig(drain_per_step=3.0, mc_skew=(4, 0)),
            PersistenceConfig(rbt_size=3, pb_size=4),
            PersistenceConfig(mc_count=4, mc_skew=(0, 3, 1, 6)),
        ],
    )
    def test_consistent_across_hardware_configs(self, compiled_loop, config):
        report = check_crash_consistency(compiled_loop, stride=7, config=config)
        assert report.ok, report.divergences[:3]

    def test_uncompiled_program_diverges(self):
        # Without region formation there are no recovery slices and no
        # boundaries: every recovery is a restart, and restarts over
        # partially-persisted state break on WAR programs.  Verify the
        # checker *detects* trouble rather than silently passing.
        module = build_rmw_loop()
        report = check_crash_consistency(
            module, stride=5, config=PersistenceConfig(drain_per_step=5.0)
        )
        assert not report.ok
