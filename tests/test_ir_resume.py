"""Interpreter resume API and per-context checkpoint bases."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.interpreter import (
    CKPT_BASE,
    Frame,
    Interpreter,
    MachineState,
    TraceEvent,
)
from repro.ir.values import Reg


def counting_module():
    b = IRBuilder(Module("m"))
    b.function("main", [])
    b.const(0, Reg("i"))
    loop = b.add_block("loop")
    body = b.add_block("body")
    done = b.add_block("done")
    b.br(loop)
    b.set_block(loop)
    c = b.cmp("slt", Reg("i"), 5)
    b.cbr(c, body, done)
    b.set_block(body)
    b.out(Reg("i"))
    b.add(Reg("i"), 1, Reg("i"))
    b.br(loop)
    b.set_block(done)
    b.ret()
    return b.module


class _Pause(Exception):
    pass


class TestResume:
    def test_resume_continues_after_pause(self):
        module = counting_module()
        interp = Interpreter(module)
        state = MachineState()
        fn = module.get("main")
        state.frames.append(Frame(fn, {}, saved_sp=state.sp))
        seen = []

        def on_event(ev: TraceEvent):
            if ev.kind == "out":
                seen.append(ev.value)
                if ev.value == 2:
                    raise _Pause()

        with pytest.raises(_Pause):
            interp.resume(state, on_event=on_event)
        # continue exactly where we stopped
        interp.resume(state, on_event=on_event)
        assert state.output == [0, 1, 2, 3, 4]

    def test_hand_built_state_at_arbitrary_point(self):
        module = counting_module()
        fn = module.get("main")
        state = MachineState()
        frame = Frame(fn, {Reg("i"): 3}, saved_sp=state.sp)
        frame.block = fn.blocks["loop"]
        frame.idx = 0
        state.frames.append(frame)
        Interpreter(module).resume(state)
        assert state.output == [3, 4]

    def test_steps_accumulate_across_resumes(self):
        module = counting_module()
        interp = Interpreter(module)
        state = MachineState()
        state.frames.append(Frame(module.get("main"), {}, saved_sp=state.sp))
        interp.resume(state)
        assert state.steps > 10


class TestCkptBase:
    def test_custom_ckpt_base_routes_spills(self):
        b = IRBuilder(Module("m"))
        b.function("f", ["x"])
        b.ret(Reg("x"))
        module = b.module
        interp = Interpreter(module, spill_args=True)
        state = MachineState()
        state.ckpt_base = 0x0F10_0000
        fn = module.get("f")
        state.frames.append(Frame(fn, {Reg("x"): 9}, saved_sp=state.sp))
        interp._spill(state, "f", Reg("x"), 9, None)
        slot = module.ckpt_slots[("f", "x")]
        assert state.memory.load(0x0F10_0000 + slot * 8) == 9
        assert state.memory.load(CKPT_BASE + slot * 8) == 0

    def test_default_base_is_ckpt_base(self):
        assert MachineState().ckpt_base == CKPT_BASE
