"""cWSP: Compiler-Directed Whole-System Persistence (ISCA 2024) reproduction.

Subpackages
-----------
``repro.ir``
    Mini-IR: instructions, parser/printer, verifier, interpreter.
``repro.analysis``
    CFG, dominators, loops, liveness, alias analysis, dataflow.
``repro.compiler``
    cWSP passes: idempotent region formation, checkpoint insertion,
    Penny checkpoint pruning, recovery-slice construction.
``repro.arch``
    Trace-driven timing simulator: caches, DRAM LLC, persist buffer,
    persist path, RBT, memory controllers, WPQ, NVM models.
``repro.schemes``
    Persistence schemes: baseline, cWSP (+ ablations), Capri, iDO,
    ReplayCache, ideal PSP.
``repro.recovery``
    Functional persistence model, power-failure injection, recovery
    protocol, crash-consistency checker.
``repro.runtime``
    Whole-system runtime: IR libc (malloc/free/memcpy/...), syscall
    entry path with manual region annotations.
``repro.workloads``
    IR kernel programs and the 37 paper-application trace profiles.
``repro.harness``
    Experiment runner and per-figure/table regeneration entry points.
"""

import os

# Nothing here calls BLAS: numpy serves only trace generation's random
# draws.  Loading numpy still starts OpenBLAS's thread pool, one helper
# per extra CPU, unless told otherwise; on a 2-vCPU host that costs
# ``import numpy.random`` about 55 ms of wall time (130-145 ms against
# 76-100 ms) and the helper spins for about 60 ms of CPU afterwards.
# Every entry point imports this package before numpy, and forked or
# spawned children inherit the environment.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"
