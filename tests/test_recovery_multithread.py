"""Multi-threaded recovery (Section VIII): DRF threads recover
independently from their own recovery points."""

import pytest

from repro.compiler import compile_module
from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.interpreter import CKPT_BASE
from repro.ir.values import Reg
from repro.recovery import PersistenceConfig, RecoveryError, word_checksum
from repro.recovery.multithread import (
    _CKPT_STRIDE,
    ThreadSpec,
    ThreadedExecution,
    check_threaded_crash_consistency,
)

SHARED_COUNTER = 0x0880_0000
ARRAYS = 0x0890_0000


def build_drf_module(iters: int = 6) -> Module:
    """Two-thread DRF workload: each thread atomically bumps a shared
    counter and fills its own (disjoint) array slice.  Confluent: the
    final state is schedule-independent."""
    module = Module("drf")
    b = IRBuilder(module)
    b.function("worker", ["tid"])
    base = b.shl(Reg("tid"), 10)
    arr = b.add(ARRAYS, base, Reg("arr"))
    ctr = b.const(SHARED_COUNTER, Reg("ctr"))
    b.const(0, Reg("i"))
    loop = b.add_block("loop")
    body = b.add_block("body")
    fin = b.add_block("fin")
    b.br(loop)
    b.set_block(loop)
    c = b.cmp("slt", Reg("i"), iters)
    b.cbr(c, body, fin)
    b.set_block(body)
    b.atomic("add", Reg("ctr"), 1)          # shared: synchronized
    v = b.mul(Reg("i"), 11)
    off = b.shl(Reg("i"), 3)
    slot = b.add(Reg("arr"), off)
    old = b.load(slot)
    b.store(b.add(old, v), slot)            # private: no races
    b.add(Reg("i"), 1, Reg("i"))
    b.br(loop)
    b.set_block(fin)
    # out the thread's array checksum (order-independent per thread)
    b.const(0, Reg("j"))
    b.const(0, Reg("sum"))
    sl = b.add_block("sl")
    sb = b.add_block("sb")
    done = b.add_block("done")
    b.br(sl)
    b.set_block(sl)
    cs = b.cmp("slt", Reg("j"), iters)
    b.cbr(cs, sb, done)
    b.set_block(sb)
    x = b.load(b.add(Reg("arr"), b.shl(Reg("j"), 3)))
    b.add(Reg("sum"), x, Reg("sum"))
    b.add(Reg("j"), 1, Reg("j"))
    b.br(sl)
    b.set_block(done)
    b.out(Reg("sum"))
    b.ret(Reg("sum"))
    return module


@pytest.fixture
def drf():
    module = build_drf_module()
    compile_module(module)
    return module


THREADS = [ThreadSpec("worker", (0,)), ThreadSpec("worker", (1,))]


class TestExecution:
    def test_two_threads_complete(self, drf):
        run = ThreadedExecution(drf, THREADS).run()
        assert run.completed
        expected = sum(i * 11 for i in range(6))
        assert run.outputs == [[expected], [expected]]

    def test_shared_counter_sums_both_threads(self, drf):
        run = ThreadedExecution(drf, THREADS).run()
        assert run.memory.load(SHARED_COUNTER) == 12  # 2 threads x 6

    def test_private_slices_disjoint(self, drf):
        run = ThreadedExecution(drf, THREADS).run()
        for tid in range(2):
            for i in range(6):
                assert run.memory.load(ARRAYS + (tid << 10) + i * 8) == i * 11

    def test_three_threads(self):
        module = build_drf_module()
        compile_module(module)
        threads = [ThreadSpec("worker", (t,)) for t in range(3)]
        run = ThreadedExecution(module, threads).run()
        assert run.completed
        assert run.memory.load(SHARED_COUNTER) == 18


class TestFailureRecovery:
    def test_interrupted_run_reports_incomplete(self, drf):
        run = ThreadedExecution(drf, THREADS).run(fail_after_event=30)
        assert not run.completed

    def test_recovery_reproduces_outputs(self, drf):
        execu = ThreadedExecution(drf, THREADS)
        ref = execu.run()
        for point in (10, 50, 150, 300):
            interrupted = execu.run(fail_after_event=point)
            if interrupted.completed:
                continue
            resumed = execu.recover_and_resume(interrupted.model)
            assert resumed.outputs == ref.outputs, f"point {point}"

    def test_shared_counter_consistent_after_recovery(self, drf):
        execu = ThreadedExecution(drf, THREADS)
        interrupted = execu.run(fail_after_event=120)
        assert not interrupted.completed
        resumed = execu.recover_and_resume(interrupted.model)
        assert resumed.memory.load(SHARED_COUNTER) == 12

    def test_full_sweep_default_config(self, drf):
        checked, divergences = check_threaded_crash_consistency(
            drf, THREADS, stride=13
        )
        assert checked > 10
        assert divergences == [], divergences[:3]

    def test_full_sweep_skewed_mcs(self, drf):
        config = PersistenceConfig(drain_per_step=0.2, mc_skew=(0, 5))
        checked, divergences = check_threaded_crash_consistency(
            drf, THREADS, stride=17, config=config
        )
        assert checked > 5
        assert divergences == [], divergences[:3]

    def test_sweep_always_cuts_at_final_event(self, drf, monkeypatch):
        """Whatever the stride, the final committed event is a checked
        failure point (stride-sampled like the single-core checker)."""
        total = ThreadedExecution(drf, THREADS).run().events
        stride = 13 if (total - 1) % 13 else 11
        assert (total - 1) % stride, "the stride walk alone misses the end"
        cuts = []
        real_run = ThreadedExecution.run

        def spy(self, fail_after_event=None, observe=None):
            run = real_run(self, fail_after_event, observe)
            if fail_after_event is not None and not run.completed:
                cuts.append(fail_after_event)
            return run

        monkeypatch.setattr(ThreadedExecution, "run", spy)
        checked, divergences = check_threaded_crash_consistency(
            drf, THREADS, stride=stride
        )
        assert divergences == [], divergences[:3]
        assert cuts[-1] == total
        assert checked == len(cuts) == len(range(1, total + 1, stride)) + 1


class TestThreadedRecoveryErrorPaths:
    """Every thread's slice-and-frame rebuild is the single-core one;
    its errors name the thread.  Thread 1 is the victim, so thread 0's
    rebuild must succeed first."""

    def _interrupted(self, drf):
        execu = ThreadedExecution(drf, THREADS)
        run = execu.run(fail_after_event=120)
        assert not run.completed
        ptrs = run.model.thread_recovery_ptr
        assert ptrs[0] is not None and ptrs[1] is not None
        assert ptrs[0][:2] != ptrs[1][:2], "threads share a boundary -- bad fixture"
        return execu, run.model, ptrs[1]

    def test_missing_recovery_slice(self, drf):
        execu, model, (func, uid, _seq) = self._interrupted(drf)
        del drf.recovery_slices[(func, uid)]
        with pytest.raises(RecoveryError, match="^thread 1: no recovery slice"):
            execu.resume_epoch(model)

    def test_missing_boundary_snapshot(self, drf):
        execu, model, (_func, _uid, seq) = self._interrupted(drf)
        del model.snapshots[seq]
        with pytest.raises(RecoveryError, match="^thread 1: no boundary snapshot"):
            execu.resume_epoch(model)

    def test_rs_oracle_validation_mismatch(self, drf):
        execu, model, (func, uid, seq) = self._interrupted(drf)
        oracle = model.snapshots[seq].frames[-1].regs
        corrupted = False
        for op in drf.recovery_slices[(func, uid)].ops:
            if op[0] != "restore" or op[1] not in oracle:
                continue
            reg = op[1]
            addr = CKPT_BASE + _CKPT_STRIDE + drf.ckpt_slots[(func, reg.name)] * 8
            bad = oracle[reg] + 1
            # A wrong value with a valid checksum: what an unsound slice
            # or pruning pass would leave, not storage damage.
            model.nvm[addr] = bad
            model.nvm_ecc[addr] = word_checksum(addr, bad)
            for log in model.logs.values():
                log[:] = [e for e in log if e[0] != addr]
            corrupted = True
        assert corrupted, "recovery slice restores nothing -- bad fixture"
        with pytest.raises(RecoveryError, match="^thread 1: RS restored"):
            execu.resume_epoch(model, validate=True)
