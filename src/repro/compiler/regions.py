"""Idempotent region formation (Section IV-A of the paper).

Two steps, following De Kruijf et al.'s algorithm as the paper does:

1. *Initial boundaries*: function entry, call sites (before and after --
   a call transfers control to code with its own regions), atomics and
   fences (synchronization points must persist before proceeding), and
   loop headers (a region per iteration).
2. *Antidependence cutting*: a forward dataflow tracks the abstract
   locations read since the last boundary ("exposed loads"); any store
   that may alias an exposed load would create a write-after-read pair
   inside its region, so a boundary is inserted immediately before it
   (the latest legal cut point -- the greedy hitting-set choice for
   interval stabbing).  Iterate to a fixpoint.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.analysis.alias import AliasAnalysis, Location
from repro.analysis.cfg import CFG
from repro.analysis.loops import find_loops
from repro.ir.function import Function
from repro.ir.instructions import (
    AtomicRMW,
    Boundary,
    Call,
    Fence,
    Load,
    Store,
)


def insert_initial_boundaries(fn: Function, loop_boundaries: bool = True) -> int:
    """Insert entry/call/sync/loop boundaries; returns how many."""
    inserted = 0

    entry = fn.entry
    if not _has_boundary_at(entry, 0):
        fn.add_instr(entry, Boundary("entry"), index=0)
        inserted += 1

    for block in list(fn.blocks.values()):
        i = 0
        while i < len(block.instrs):
            instr = block.instrs[i]
            cls = type(instr)
            if cls is Call:
                if not _has_boundary_at(block, i):
                    fn.add_instr(block, Boundary("call"), index=i)
                    inserted += 1
                    i += 1  # now pointing at the call again
                # boundary after the call; leave room for a ckpt of the
                # call's destination, which the checkpoint pass inserts
                # at i+1 (between call and post-call boundary)
                if not _has_boundary_at(block, i + 1):
                    fn.add_instr(block, Boundary("post_call"), index=i + 1)
                    inserted += 1
                    i += 1
            elif cls is AtomicRMW or cls is Fence:
                if not _has_boundary_at(block, i):
                    fn.add_instr(block, Boundary("sync"), index=i)
                    inserted += 1
                    i += 1
                if not _has_boundary_at(block, i + 1):
                    fn.add_instr(block, Boundary("sync"), index=i + 1)
                    inserted += 1
                    i += 1
            i += 1

    if loop_boundaries:
        cfg = CFG(fn)
        for loop in find_loops(cfg):
            header = fn.blocks[loop.header]
            if not _has_boundary_at(header, 0):
                fn.add_instr(header, Boundary("loop"), index=0)
                inserted += 1
    return inserted


def _has_boundary_at(block, index: int) -> bool:
    return (
        0 <= index < len(block.instrs) and type(block.instrs[index]) is Boundary
    )


# ----------------------------------------------------------------------
# Antidependence detection and cutting
# ----------------------------------------------------------------------

#: Instructions that end the current region for the exposed-load dataflow.
_CLEARING = (Boundary, Call, AtomicRMW, Fence)


def find_antidependent_stores(fn: Function) -> List[int]:
    """Uids of stores that may alias a load executed earlier in their region.

    These are exactly the write-after-read hazards that break
    idempotence; each must get a boundary before it.
    """
    cfg = CFG(fn)
    alias = AliasAnalysis(fn, cfg)
    # Block-level dataflow: set of exposed-load Locations at block entry.
    block_in: Dict[str, FrozenSet[Location]] = {name: frozenset() for name in fn.blocks}
    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for name in order:
            if name == cfg.entry:
                inn: FrozenSet[Location] = frozenset()
            else:
                acc: Set[Location] = set()
                for pred in cfg.predecessors[name]:
                    acc |= _transfer_block(fn, alias, pred, block_in[pred])
                inn = frozenset(acc)
            if inn != block_in[name]:
                block_in[name] = inn
                changed = True

    flagged: List[int] = []
    for name, block in fn.blocks.items():
        exposed: Set[Location] = set(block_in[name])
        for instr in block.instrs:
            cls = type(instr)
            if cls in _CLEARING:
                exposed.clear()
            elif cls is Load:
                exposed.add(alias.location_of[instr.uid])
            elif cls is Store:
                loc = alias.location_of[instr.uid]
                if any(loc.may_alias(e) for e in exposed):
                    flagged.append(instr.uid)
            # Checkpoint stores target the disjoint checkpoint region
            # and never read program data: no hazard.
    return flagged


def _transfer_block(
    fn: Function, alias: AliasAnalysis, name: str, inn: FrozenSet[Location]
) -> Set[Location]:
    exposed: Set[Location] = set(inn)
    for instr in fn.blocks[name].instrs:
        cls = type(instr)
        if cls in _CLEARING:
            exposed.clear()
        elif cls is Load:
            exposed.add(alias.location_of[instr.uid])
    return exposed


def cut_antidependences(fn: Function, max_rounds: int = 64) -> int:
    """Insert boundaries before antidependent stores until none remain."""
    total = 0
    for _ in range(max_rounds):
        flagged = find_antidependent_stores(fn)
        if not flagged:
            return total
        for uid in flagged:
            block, index = fn.find_instr(uid)
            fn.add_instr(block, Boundary("antidep"), index=index)
            total += 1
    raise RuntimeError(
        f"@{fn.name}: antidependence cutting did not converge in {max_rounds} rounds"
    )
