"""Program analyses over the mini-IR.

These play the role of LLVM's analyses in the paper's compiler:
``alias`` stands in for LLVM alias analysis (Section IV-A), ``liveness``
for LLVM liveness analysis (Section IV-B), and ``dominators``/``loops``
support region-boundary placement at loop headers.

``pareto`` is the odd one out: generic multi-objective dominance used
by the design-space exploration frontier (:mod:`repro.explore`).

The package re-exports nothing: import the submodule you use, so that
loading ``pareto`` does not load the IR analyses.
"""
