"""Interpreter semantics: arithmetic, memory, control, calls, faults."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.interpreter import (
    CKPT_BASE,
    HEAP_BASE,
    Interpreter,
    InterpreterError,
    Memory,
    eval_binop,
)
from repro.ir.values import Reg


def run_expr(build):
    """Build main() with *build*, return its final output list."""
    b = IRBuilder(Module("t"))
    b.function("main", [])
    build(b)
    state, _ = Interpreter(b.module).run_trace()
    return state.output


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,lhs,rhs,expected",
        [
            ("add", 2, 3, 5),
            ("sub", 2, 3, -1),
            ("mul", -4, 3, -12),
            ("sdiv", 7, 2, 3),
            ("sdiv", -7, 2, -3),  # trunc toward zero, like hardware
            ("srem", 7, 2, 1),
            ("srem", -7, 2, -1),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("shl", 1, 10, 1024),
            ("ashr", -8, 1, -4),
            ("lshr", -1, 60, 15),
            ("eq", 3, 3, 1),
            ("ne", 3, 3, 0),
            ("slt", -1, 0, 1),
            ("sle", 2, 2, 1),
            ("sgt", 5, 4, 1),
            ("sge", 4, 5, 0),
        ],
    )
    def test_eval_binop(self, op, lhs, rhs, expected):
        assert eval_binop(op, lhs, rhs) == expected

    def test_add_wraps_64_bits(self):
        assert eval_binop("add", (1 << 63) - 1, 1) == -(1 << 63)

    def test_shift_amount_masked_to_6_bits(self):
        assert eval_binop("shl", 1, 64) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            eval_binop("sdiv", 1, 0)
        with pytest.raises(InterpreterError):
            eval_binop("srem", 1, 0)


class TestMemory:
    def test_uninitialized_reads_zero(self):
        assert Memory().load(0x1000) == 0

    def test_store_load_roundtrip(self):
        m = Memory()
        m.store(0x1000, -99)
        assert m.load(0x1000) == -99

    def test_unaligned_load_raises(self):
        with pytest.raises(InterpreterError):
            Memory().load(0x1001)

    def test_unaligned_store_raises(self):
        with pytest.raises(InterpreterError):
            Memory().store(0x1004, 1)

    def test_null_access_raises(self):
        with pytest.raises(InterpreterError):
            Memory().load(0)

    def test_equality_ignores_zero_words(self):
        a, b = Memory(), Memory()
        a.store(0x1000, 0)
        assert a == b

    def test_copy_is_independent(self):
        a = Memory()
        a.store(0x1000, 1)
        b = a.copy()
        b.store(0x1000, 2)
        assert a.load(0x1000) == 1


class TestExecution:
    def test_simple_program(self):
        def build(b):
            x = b.const(40)
            y = b.add(x, 2)
            b.out(y)
            b.ret()

        assert run_expr(build) == [42]

    def test_conditional_branch_taken(self):
        def build(b):
            c = b.cmp("slt", 1, 2)
            t = b.add_block("t")
            f = b.add_block("f")
            b.cbr(c, t, f)
            b.set_block(t)
            b.out(1)
            b.ret()
            b.set_block(f)
            b.out(0)
            b.ret()

        assert run_expr(build) == [1]

    def test_loop_sums(self):
        def build(b):
            b.const(0, Reg("i"))
            b.const(0, Reg("s"))
            loop = b.add_block("loop")
            body = b.add_block("body")
            done = b.add_block("done")
            b.br(loop)
            b.set_block(loop)
            c = b.cmp("slt", Reg("i"), 5)
            b.cbr(c, body, done)
            b.set_block(body)
            b.add(Reg("s"), Reg("i"), Reg("s"))
            b.add(Reg("i"), 1, Reg("i"))
            b.br(loop)
            b.set_block(done)
            b.out(Reg("s"))
            b.ret()

        assert run_expr(build) == [10]

    def test_alloca_addresses_descend(self):
        def build(b):
            p1 = b.alloca(16)
            p2 = b.alloca(16)
            d = b.sub(p1, p2)
            b.out(d)
            b.ret()

        assert run_expr(build) == [16]

    def test_atomic_returns_old_value(self):
        def build(b):
            p = b.alloca(8)
            b.store(10, p)
            old = b.atomic("add", p, 5)
            new = b.load(p)
            b.out(old)
            b.out(new)
            b.ret()

        assert run_expr(build) == [10, 15]

    def test_atomic_xchg(self):
        def build(b):
            p = b.alloca(8)
            b.store(1, p)
            old = b.atomic("xchg", p, 99)
            b.out(old)
            b.out(b.load(p))
            b.ret()

        assert run_expr(build) == [1, 99]

    def test_call_and_return(self, call_chain):
        state, _ = Interpreter(call_chain).run_trace()
        assert state.output == [42]

    def test_stack_restored_after_return(self):
        b = IRBuilder(Module("t"))
        b.function("leaf", [])
        b.alloca(64)
        b.ret()
        b.function("main", [])
        p1 = b.alloca(8)
        b.call("leaf", [], void=True)
        p2 = b.alloca(8)
        d = b.sub(p1, p2)
        b.out(d)
        b.ret()
        state, _ = Interpreter(b.module).run_trace()
        assert state.output == [8]  # leaf's 64 bytes were reclaimed

    def test_run_with_args(self):
        b = IRBuilder(Module("t"))
        b.function("main", ["a", "b"])
        b.out(b.add(Reg("a"), Reg("b")))
        b.ret()
        state, _ = Interpreter(b.module).run_trace(args=(3, 4))
        assert state.output == [7]

    def test_wrong_arg_count_raises(self):
        b = IRBuilder(Module("t"))
        b.function("main", ["a"])
        b.ret()
        with pytest.raises(InterpreterError):
            Interpreter(b.module).run()


class TestIntrinsics:
    def test_sbrk_bumps(self):
        def build(b):
            p1 = b.call("sbrk", [16], rd=Reg("p1"))
            p2 = b.call("sbrk", [8], rd=Reg("p2"))
            b.out(b.sub(Reg("p2"), Reg("p1")))
            b.ret()

        assert run_expr(build) == [16]

    def test_sbrk_starts_at_heap_base(self):
        def build(b):
            p = b.call("sbrk", [0], rd=Reg("p"))
            b.out(Reg("p"))
            b.ret()

        assert run_expr(build) == [HEAP_BASE]

    def test_nv_malloc_rounds_up(self):
        def build(b):
            p1 = b.call("nv_malloc", [9], rd=Reg("p1"))
            p2 = b.call("nv_malloc", [8], rd=Reg("p2"))
            b.out(b.sub(Reg("p2"), Reg("p1")))
            b.ret()

        assert run_expr(build) == [16]

    def test_sbrk_negative_raises(self):
        def build(b):
            b.call("sbrk", [-8], void=True)
            b.ret()

        with pytest.raises(InterpreterError):
            run_expr(build)

    def test_halt_stops_execution(self):
        def build(b):
            b.out(1)
            b.call("halt", [], void=True)
            b.out(2)
            b.ret()

        assert run_expr(build) == [1]


class TestFaults:
    def test_undefined_register_raises(self):
        b = IRBuilder(Module("t"))
        b.function("main", [])
        b.out(Reg("never_defined"))
        b.ret()
        with pytest.raises(InterpreterError, match="undefined register"):
            Interpreter(b.module).run()

    def test_step_limit(self):
        b = IRBuilder(Module("t"))
        b.function("main", [])
        loop = b.add_block("loop")
        b.br(loop)
        b.set_block(loop)
        b.br(loop)
        with pytest.raises(InterpreterError, match="step limit"):
            Interpreter(b.module).run(max_steps=100)


class TestTraceEvents:
    def test_event_kinds(self, straightline):
        _, events = Interpreter(straightline).run_trace()
        kinds = [e.kind for e in events]
        assert kinds.count("store") == 3
        assert kinds.count("load") == 3
        assert kinds.count("out") == 1
        assert kinds[-1] == "ret"

    def test_store_event_carries_addr_value(self):
        b = IRBuilder(Module("t"))
        b.function("main", [])
        b.store(77, 0x2000)
        b.ret()
        _, events = Interpreter(b.module).run_trace()
        store = next(e for e in events if e.kind == "store")
        assert store.addr == 0x2000 and store.value == 77

    def test_spill_args_writes_ckpt_slots(self, call_chain):
        interp = Interpreter(call_chain, spill_args=True)
        state, events = interp.run_trace()
        spills = [e for e in events if e.kind == "store" and e.is_ckpt]
        assert len(spills) == 1  # double's parameter x
        slot = call_chain.ckpt_slots[("double", "x")]
        assert spills[0].addr == CKPT_BASE + slot * 8
        assert spills[0].value == 21

    def test_intrinsic_call_kind(self):
        b = IRBuilder(Module("t"))
        b.function("main", [])
        b.call("sbrk", [8], void=True)
        b.ret()
        _, events = Interpreter(b.module).run_trace()
        assert any(e.kind == "icall" for e in events)
