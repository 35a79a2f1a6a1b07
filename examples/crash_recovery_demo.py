#!/usr/bin/env python3
"""Power-failure recovery on the paper's motivating workload.

Inserts nodes at the head of a linked list (the doubly-linked-list
hazard from the paper's introduction, with the allocator running as
compiled IR code too), cuts power at a handful of points, runs the
cWSP recovery protocol, and verifies the resumed execution reproduces
the failure-free outcome -- the experiment the paper admits it never ran.

Run:  python examples/crash_recovery_demo.py
"""

from repro.compiler import compile_module
from repro.recovery import (
    PersistenceConfig,
    check_crash_consistency,
    recover_and_resume,
    run_with_failure,
)
from repro.workloads.programs import build_kernel


def main() -> None:
    module, entry, args = build_kernel("linked_list")
    report = compile_module(module)
    print(f"compiled linked_list: {report.summary()}")

    _, _, ref = run_with_failure(module, None, entry, args)
    print(f"failure-free output: {ref.output}\n")

    config = PersistenceConfig(drain_per_step=0.4, mc_skew=(0, 4))
    for point in (25, 120, 300, 700):
        model, completed, _ = run_with_failure(
            module, point, entry, args, config
        )
        if completed:
            print(f"power cut after event {point}: program already finished")
            continue
        result = recover_and_resume(module, model, entry, args)
        where = (
            "restart from scratch"
            if result.recovery_ptr is None
            else f"resume @{result.recovery_ptr[0]} boundary #{result.recovery_ptr[1]}"
        )
        ok = "OK" if result.output == ref.output else "MISMATCH"
        print(
            f"power cut after event {point:4d}: {where}; "
            f"restored {len(result.restored_regs)} registers via the recovery "
            f"slice; resumed {result.resumed_steps} instructions -> {ok}"
        )

    print("\nexhaustive sweep (every 4th committed instruction):")
    sweep = check_crash_consistency(module, entry, args, stride=4, config=config)
    print(f"  {sweep.summary()}")
    assert sweep.ok


if __name__ == "__main__":
    main()
