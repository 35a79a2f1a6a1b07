#!/usr/bin/env python3
"""Quickstart: compile a program with cWSP and watch it become recoverable.

Builds the paper's motivating pattern (a read-modify-write loop), runs
the cWSP compiler over it, prints the transformed IR with its region
boundaries / checkpoints / recovery slices, and then measures the
persistence overhead in the timing simulator.

Run:  python examples/quickstart.py
"""

from repro.arch import simulate, skylake_machine
from repro.compiler import check_idempotence_static, compile_module
from repro.ir import IRBuilder, Interpreter, Reg, print_module
from repro.schemes import baseline, cwsp
from repro.workloads.adapter import trace_ir_program


def build_program():
    """sum += a[i] for a small NVM-resident array, in-place."""
    b = IRBuilder()
    b.function("main", [])
    base = b.const(0x0800_0000, Reg("base"))
    n = b.const(400, Reg("n"))
    b.const(0, Reg("i"))
    loop = b.add_block("loop")
    body = b.add_block("body")
    done = b.add_block("done")
    b.br(loop)
    b.set_block(loop)
    cond = b.cmp("slt", Reg("i"), Reg("n"))
    b.cbr(cond, body, done)
    b.set_block(body)
    slot = b.and_(Reg("i"), 63)
    off = b.shl(slot, 3)
    addr = b.add(Reg("base"), off)
    v = b.load(addr)
    v2 = b.add(v, 7)
    b.store(v2, addr)  # write-after-read: the crash-consistency hazard
    b.add(Reg("i"), 1, Reg("i"))
    b.br(loop)
    b.set_block(done)
    total = b.load(Reg("base"))
    b.out(total)
    b.ret(total)
    return b.module


def main() -> None:
    module = build_program()
    state, _ = Interpreter(module).run_trace()
    print(f"original program output: {state.output}")

    report = compile_module(module)
    print(f"\ncWSP compile: {report.summary()}")
    check_idempotence_static(module)
    print("static idempotence check: no WAR hazard inside any region\n")
    print(print_module(module))

    print("recovery slices (what the runtime executes after power failure):")
    for (func, buid), rs in module.recovery_slices.items():
        live = ", ".join(f"%{r.name}" for r in rs.live_in) or "-"
        print(f"  @{func} boundary #{buid}: live-in [{live}], {len(rs)} RS ops, "
              f"{rs.restore_count()} slot restores")

    state2, _ = Interpreter(module, spill_args=True).run_trace()
    assert state2.output == state.output
    print(f"\ncompiled program output:  {state2.output}  (identical)")

    machine = skylake_machine(scaled=True)
    base_trace = trace_ir_program(build_program(), spill_args=False)
    cwsp_trace = trace_ir_program(module)
    t_base = simulate(base_trace, machine, baseline())
    t_cwsp = simulate(cwsp_trace, machine, cwsp())
    print(
        f"\ntiming: baseline {t_base.cycles:.0f} cycles, "
        f"cWSP {t_cwsp.cycles:.0f} cycles "
        f"(slowdown {t_cwsp.cycles / t_base.cycles:.3f}x)"
    )


if __name__ == "__main__":
    main()
