"""The cWSP compile pipeline: region formation -> checkpoints -> pruning.

``compile_module`` is the public entry point; it transforms a module in
place (inserting ``boundary``/``ckpt`` instructions and attaching
recovery slices) and returns a :class:`CompileReport` with the static
statistics the paper reports (boundary counts, checkpoints inserted /
pruned / kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.compiler.checkpoints import insert_checkpoints
from repro.compiler.pruning import prune_and_build_slices
from repro.compiler.regions import cut_antidependences, insert_initial_boundaries
from repro.ir.function import Module
from repro.ir.instructions import Boundary
from repro.ir.verifier import verify_module


@dataclass
class CompileOptions:
    """Which passes to run (each corresponds to a paper mechanism)."""

    #: Partition into idempotent regions (Section IV-A).  Disabling
    #: yields the original program -- the paper's baseline.
    region_formation: bool = True
    #: A region per loop iteration (boundary at each loop header).
    loop_boundaries: bool = True
    #: Checkpoint live-out registers (Section IV-B).
    checkpoints: bool = True
    #: Penny's checkpoint pruning (Section IV-C).  When disabled,
    #: recovery slices degenerate to plain restores of every kept
    #: checkpoint -- the "-Pruning" ablation of Figure 15.
    pruning: bool = True
    #: Run the IR verifier after the pipeline.
    verify: bool = True


@dataclass
class FunctionReport:
    """Static statistics for one compiled function."""

    boundaries: Dict[str, int] = field(default_factory=dict)
    antidep_cuts: int = 0
    ckpts_inserted: int = 0
    ckpts_pruned: int = 0
    ckpts_kept: int = 0

    @property
    def total_boundaries(self) -> int:
        return sum(self.boundaries.values())


@dataclass
class CompileReport:
    """Aggregated statistics for a compiled module."""

    functions: Dict[str, FunctionReport] = field(default_factory=dict)

    @property
    def total_boundaries(self) -> int:
        return sum(f.total_boundaries for f in self.functions.values())

    @property
    def total_ckpts_inserted(self) -> int:
        return sum(f.ckpts_inserted for f in self.functions.values())

    @property
    def total_ckpts_pruned(self) -> int:
        return sum(f.ckpts_pruned for f in self.functions.values())

    @property
    def total_ckpts_kept(self) -> int:
        return sum(f.ckpts_kept for f in self.functions.values())

    def summary(self) -> str:
        return (
            f"{len(self.functions)} functions, "
            f"{self.total_boundaries} boundaries, "
            f"{self.total_ckpts_inserted} checkpoints inserted "
            f"({self.total_ckpts_pruned} pruned, {self.total_ckpts_kept} kept)"
        )


def compile_module(module: Module, options: CompileOptions | None = None) -> CompileReport:
    """Run the cWSP passes over every function of *module*, in place."""
    options = options if options is not None else CompileOptions()
    report = CompileReport()
    for fn in module.functions.values():
        freport = FunctionReport()
        if options.region_formation:
            insert_initial_boundaries(fn, loop_boundaries=options.loop_boundaries)
            freport.antidep_cuts = cut_antidependences(fn)
            if options.checkpoints:
                freport.ckpts_inserted = insert_checkpoints(fn)
                presult = prune_and_build_slices(
                    fn, module, enable_pruning=options.pruning
                )
                freport.ckpts_pruned = presult.pruned
                freport.ckpts_kept = presult.kept
        for _, instr in fn.instructions():
            if type(instr) is Boundary:
                freport.boundaries[instr.kind] = freport.boundaries.get(instr.kind, 0) + 1
        report.functions[fn.name] = freport
    if options.verify:
        verify_module(module)
    return report
