"""Property-based tests (hypothesis) on core invariants.

The headline property mirrors the whole system's contract: for *any*
generated program, the cWSP-compiled version computes the same result
as the original, its regions are WAR-free and replayable, and a power
failure at any point recovers to the failure-free outcome.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.arch.caches import CacheHierarchy
from repro.arch.config import CacheConfig, DRAMCacheConfig, skylake_machine
from repro.arch.machine import TimingSimulator, simulate
from repro.arch.multicore import MulticoreSimulator
from repro.arch.queues import CompletionQueue
from repro.arch.scheme import Scheme
from repro.arch.trace import PackedTrace
from repro.compiler import (
    check_idempotence_static,
    check_regions_replayable,
    compile_module,
)
from repro.harness import engine
from repro.harness.engine import NullCache, TraceStore, compute_point, resolve_points
from repro.harness.spec import SimPoint
from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.interpreter import Interpreter, Memory, eval_binop
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.values import Reg, to_s64
from repro.recovery import PersistenceConfig, check_crash_consistency
from repro.schemes.catalog import baseline, capri, cwsp, ido, psp_ideal, replaycache
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import (
    _GEN_BLOCK,
    SyntheticStream,
    generate_trace,
    prime_ranges,
)
from tests.sim_oracle import OracleMulticore, OracleSimulator, oracle_simulate
from tests.trace_oracle import OracleStream

# ----------------------------------------------------------------------
# eval_binop matches a Python reference model
# ----------------------------------------------------------------------

_REF = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}

i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@given(op=st.sampled_from(sorted(_REF)), a=i64, b=i64)
def test_binop_matches_wrapped_python(op, a, b):
    assert eval_binop(op, a, b) == to_s64(_REF[op](a, b))


@given(a=i64, b=i64)
def test_sdiv_srem_identity(a, b):
    if b == 0:
        return
    q = eval_binop("sdiv", a, b)
    r = eval_binop("srem", a, b)
    assert to_s64(q * b + r) == to_s64(a)


@given(a=i64, s=st.integers(min_value=0, max_value=63))
def test_shift_roundtrip_high_bits(a, s):
    shifted = eval_binop("shl", a, s)
    back = eval_binop("lshr", shifted, s)
    mask = (1 << (64 - s)) - 1
    assert back & mask == (a & mask)


@given(a=i64, b=i64)
def test_comparisons_total_order(a, b):
    assert eval_binop("slt", a, b) + eval_binop("sge", a, b) == 1
    assert eval_binop("eq", a, b) + eval_binop("ne", a, b) == 1


@given(x=st.integers())
def test_to_s64_is_idempotent(x):
    assert to_s64(to_s64(x)) == to_s64(x)


# ----------------------------------------------------------------------
# Memory behaves like a word-addressed dict
# ----------------------------------------------------------------------

addr_strategy = st.integers(min_value=1, max_value=1 << 20).map(lambda x: x * 8)


@given(
    ops=st.lists(
        st.tuples(addr_strategy, i64),
        min_size=1,
        max_size=40,
    )
)
def test_memory_matches_dict_model(ops):
    mem = Memory()
    model = {}
    for addr, value in ops:
        mem.store(addr, value)
        model[addr] = value
    for addr, value in model.items():
        assert mem.load(addr) == value


# ----------------------------------------------------------------------
# CompletionQueue: occupancy integral and FIFO completion
# ----------------------------------------------------------------------

@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_completion_queue_fifo_and_drains(times):
    q = CompletionQueue(capacity=1000)
    for t in times:
        q.push(t)
    completions = list(q.entries)
    assert completions == sorted(completions)  # FIFO completion order
    q.advance(2000.0)
    assert q.occupancy() == 0
    assert q.occ_integral >= 0.0


# ----------------------------------------------------------------------
# Random-program pipeline property
# ----------------------------------------------------------------------

REGS = [Reg("r0"), Reg("r1"), Reg("r2"), Reg("r3")]
BASE = 0x0800_0000
WORDS = 6

op_strategy = st.one_of(
    st.tuples(st.just("const"), st.integers(0, 3), st.integers(-100, 100)),
    st.tuples(
        st.just("bin"),
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.tuples(st.just("load"), st.integers(0, 3), st.integers(0, WORDS - 1)),
    st.tuples(st.just("store"), st.integers(0, 3), st.integers(0, WORDS - 1)),
    st.tuples(st.just("out"), st.integers(0, 3)),
)

program_strategy = st.tuples(
    st.lists(op_strategy, min_size=3, max_size=14),  # loop body
    st.lists(op_strategy, min_size=0, max_size=6),  # epilogue
    st.integers(min_value=1, max_value=4),  # trip count
)


def build_program(spec) -> Module:
    body, epilogue, trips = spec
    b = IRBuilder(Module("prop"))
    b.function("main", [])
    for r in REGS:
        b.const(1, r)
    b.const(0, Reg("i"))
    loop = b.add_block("loop")
    blk_body = b.add_block("body")
    after = b.add_block("after")
    b.br(loop)
    b.set_block(loop)
    c = b.cmp("slt", Reg("i"), trips)
    b.cbr(c, blk_body, after)
    b.set_block(blk_body)
    _emit_ops(b, body)
    b.add(Reg("i"), 1, Reg("i"))
    b.br(loop)
    b.set_block(after)
    _emit_ops(b, epilogue)
    for r in REGS:
        b.out(r)
    for w in range(WORDS):
        b.out(b.load(BASE + w * 8))
    b.ret()
    return b.module


def _emit_ops(b: IRBuilder, ops) -> None:
    for op in ops:
        kind = op[0]
        if kind == "const":
            b.const(op[2], REGS[op[1]])
        elif kind == "bin":
            b.binop(op[1], REGS[op[3]], REGS[op[4]], REGS[op[2]])
        elif kind == "load":
            b.load(BASE + op[2] * 8, rd=REGS[op[1]])
        elif kind == "store":
            b.store(REGS[op[1]], BASE + op[2] * 8)
        elif kind == "out":
            b.out(REGS[op[1]])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=program_strategy)
def test_compiled_program_equivalent_and_idempotent(spec):
    module = build_program(spec)
    ref, _ = Interpreter(module).run_trace()

    compiled = build_program(spec)
    compile_module(compiled)
    check_idempotence_static(compiled)
    got, _ = Interpreter(compiled, spill_args=True).run_trace()
    assert got.output == ref.output

    check_regions_replayable(compiled)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=program_strategy, drain=st.sampled_from([0.1, 0.7, 3.0]))
def test_any_power_failure_recovers(spec, drain):
    module = build_program(spec)
    compile_module(module)
    config = PersistenceConfig(drain_per_step=drain, mc_skew=(0, 3))
    report = check_crash_consistency(module, stride=9, config=config)
    assert report.ok, report.divergences[:2]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=program_strategy)
def test_printer_parser_roundtrip_random_programs(spec):
    module = build_program(spec)
    text = print_module(module)
    assert print_module(parse_module(text)) == text


# ----------------------------------------------------------------------
# The fused packed loop matches the per-event reference loop
# ----------------------------------------------------------------------
#
# ``simulate`` runs every stream, packed or a plain list of event
# tuples, through the fused ``TimingSimulator._packed_gen``; the
# per-event reference loop of tests/sim_oracle.py is the oracle.  All
# three must agree byte for byte on ``SimStats.to_dict()``.

#: Code alphabets to draw events from: the first is dense in rare
#: events (boundaries, fences, atomics, checkpoint stores); the second
#: approximates a real stream, mostly ALU ops and loads.
_TRACE_ALPHABETS = ("alscbfx", "aaaaaaaaalllllsssscbfx")
#: Mostly boundaries, fences and atomics, with enough stores between
#: them that regions have persists to wait for.
_RARE_ALPHABETS = ("bfxbfxsl", "bbbffxxsscla")
_NO_ADDR = frozenset("abf")
_CATALOG = {
    "baseline": baseline,
    "capri": capri,
    "cwsp": cwsp,
    "ido": ido,
    "psp_ideal": psp_ideal,
    "replaycache": replaycache,
}


@st.composite
def packed_traces(draw, max_size=200, alphabets=_TRACE_ALPHABETS):
    alphabet = draw(st.sampled_from(alphabets))
    # Draw the length first: st.lists alone averages a handful of
    # events, too few to fill a cache set or a queue.
    n = draw(st.integers(0, max_size))
    codes = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    # Addresses from a few hot lines (L1 hits), from lines 8 KiB apart
    # (one L1 and one L2 set, so both evict), and from a 4 MiB span
    # (misses to every level).
    addr = st.one_of(
        st.integers(0, 255).map(lambda w: w * 8),
        st.integers(0, 39).map(lambda k: k * 8192),
        st.integers(0, (1 << 19) - 1).map(lambda w: w * 8),
    )
    addrs = [0 if code in _NO_ADDR else draw(addr) for code in codes]
    return PackedTrace("".join(codes), addrs)


def _schemes():
    return st.builds(
        Scheme,
        name=st.just("fuzz"),
        persist_stores=st.booleans(),
        persist_bytes=st.sampled_from([8, 64]),
        nvm_write_amp=st.sampled_from([1.0, 2.0, 8.0]),
        stall_at_boundary=st.booleans(),
        mc_speculation=st.booleans(),
        wb_delay=st.booleans(),
        wpq_load_delay=st.booleans(),
        dram_cache_enabled=st.booleans(),
        extra_insts_per_store=st.sampled_from([0, 1, 2]),
        extra_insts_per_region=st.sampled_from([0, 4]),
        ckpt_stores_per_region=st.sampled_from([0.0, 0.5, 2.0]),
        pb_entries_override=st.sampled_from([None, 1, 2]),
        rbt_entries_override=st.sampled_from([None, 1, 2]),
        coalesce_lines=st.booleans(),
    )


@st.composite
def boundary_schemes(draw):
    """Knobs the inlined boundary, fence and atomic bodies branch on:
    every boundary mode, and one- or two-entry PB and RBT, so that
    full-queue admits run."""
    mode = draw(st.sampled_from(["mc_speculation", "stall_at_boundary", "neither"]))
    return Scheme(
        name="fuzz",
        persist_stores=draw(st.sampled_from([True, True, True, False])),
        persist_bytes=draw(st.sampled_from([8, 64])),
        mc_speculation=mode == "mc_speculation",
        stall_at_boundary=mode == "stall_at_boundary",
        wb_delay=draw(st.booleans()),
        wpq_load_delay=draw(st.booleans()),
        extra_insts_per_store=draw(st.sampled_from([0, 1])),
        extra_insts_per_region=draw(st.sampled_from([0, 4])),
        ckpt_stores_per_region=draw(st.sampled_from([0.0, 0.5, 2.0])),
        pb_entries_override=draw(st.sampled_from([1, 2])),
        rbt_entries_override=draw(st.sampled_from([1, 2])),
        coalesce_lines=draw(st.booleans()),
    )


def _assert_packed_equals_reference(trace, machine, scheme, prime=None):
    events = trace.to_events()
    assert type(events) is list
    results = [
        _stats_json(run(stream, machine, scheme, prime=prime))
        for run, stream in (
            (simulate, trace),
            (simulate, events),
            (oracle_simulate, events),
        )
    ]
    assert results[0] == results[1] == results[2]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=packed_traces(),
    scheme=_schemes(),
    commit_width=st.sampled_from([1, 2, 3, 4]),
)
def test_packed_loop_matches_reference_loop(trace, scheme, commit_width):
    machine = skylake_machine(scaled=True, commit_width=commit_width)
    _assert_packed_equals_reference(trace, machine, scheme)


# ----------------------------------------------------------------------
# Closed-form priming matches a per-line replay
# ----------------------------------------------------------------------
#
# ``CacheHierarchy.prime`` fills the direct-mapped DRAM cache from
# constant-tag runs.  The reference below writes every line of every
# range in turn, as priming is defined; the two must leave snapshots
# that are equal byte for byte, each set's line order included (it is
# the recency order that picks the victims).


def _reference_prime(hier, ranges, from_level=0):
    ranges = sorted(ranges, key=lambda r: r[1])
    cumulative = 0
    level_cutoff = []
    for base, size in ranges:
        cumulative += size
        level_cutoff.append(cumulative)
    for li, level in enumerate(hier.levels):
        if li < from_level:
            continue
        capacity = level.n_sets * level.ways << level.line_bits
        for (base, size), cum in zip(ranges, level_cutoff):
            if cum > capacity:
                continue
            for line in range(base >> level.line_bits, (base + size) >> level.line_bits):
                ways = level.sets.setdefault(line % level.n_sets, {})
                if len(ways) < level.ways:
                    ways[line] = False
    dram = hier.dram
    if dram is not None:
        for base, size in reversed(ranges):
            for line in range(base >> hier.line_bits, (base + size) >> hier.line_bits):
                index = line % dram.n_lines
                dram.tags[index] = line // dram.n_lines
                dram.dirty.discard(index)


@st.composite
def prime_cases(draw):
    l1_sets, l1_ways = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    l2_sets, l2_ways = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    levels = (
        CacheConfig("L1", 64 * l1_sets * l1_ways, l1_ways, hit_latency=4),
        CacheConfig("L2", 64 * l2_sets * l2_ways, l2_ways, hit_latency=14),
    )
    n_lines = draw(st.integers(1, 16))
    dram = draw(st.sampled_from([None, DRAMCacheConfig(64 * n_lines, hit_latency=100)]))
    # Sizes in lines below, at and several times the DRAM cache, plus
    # unaligned bytes; bases unaligned, overlapping in a small span.
    lines = st.one_of(
        st.integers(0, n_lines),
        st.sampled_from([n_lines, 2 * n_lines, 3 * n_lines + 1, 5 * n_lines - 1]),
    )
    size = st.tuples(lines, st.integers(0, 63)).map(lambda t: max(0, t[0] * 64 - t[1]))
    base = st.integers(0, 64 * 8 * n_lines)
    ranges = draw(st.lists(st.tuples(base, size), max_size=6))
    # Accesses before priming, so priming also overwrites dirty lines.
    before = draw(st.lists(st.tuples(base, st.booleans()), max_size=8))
    return levels, dram, ranges, before, draw(st.sampled_from([0, 1]))


@settings(max_examples=200, deadline=None)
@given(case=prime_cases())
def test_prime_matches_per_line_reference(case):
    levels, dram, ranges, before, from_level = case
    snapshots = []
    for prime in (CacheHierarchy.prime, _reference_prime):
        hier = CacheHierarchy(levels, dram)
        for addr, write in before:
            hier.access(addr, write)
        prime(hier, list(ranges), from_level)
        snapshots.append(json.dumps(hier.snapshot()))
    assert snapshots[0] == snapshots[1]


@st.composite
def primed_access_cases(draw):
    """A prime case plus accesses after priming.  Addresses start at a
    primed range, a pre-prime access or zero, and move up to twice the
    DRAM cache's size and up to two tag blocks either way, so they hit
    and miss on primed, unprimed and pre-prime-dirty indices."""
    levels, dram, ranges, before, from_level = draw(prime_cases())
    block = dram.size_bytes if dram is not None else 64
    starts = [0] + [base for base, _ in ranges] + [addr for addr, _ in before]
    addr = st.builds(
        lambda start, offset, shift: max(0, start + offset + shift * block),
        st.sampled_from(starts),
        st.integers(0, 2 * block),
        st.integers(-2, 2),
    )
    # (address, write, straight to the DRAM cache or through the levels)
    after = draw(st.lists(st.tuples(addr, st.booleans(), st.booleans()), max_size=24))
    return levels, dram, ranges, before, from_level, after


def _access_all(hier, after):
    """Run *after* on *hier*; return every result and the DRAM indices
    the direct accesses touched."""
    results, touched = [], set()
    for addr, write, direct in after:
        if direct and hier.dram is not None:
            line = addr >> hier.line_bits
            results.append(hier.dram.access(line, write))
            touched.add(line % hier.dram.n_lines)
        else:
            results.append(hier.access(addr, write))
    return results, touched


@settings(max_examples=200, deadline=None)
@given(case=primed_access_cases())
def test_primed_accesses_match_per_line_reference(case):
    """Accesses after priming return what they return after a per-line
    replay and leave the same snapshot.  Each DRAM index a direct access
    touched holds its tag in ``tags`` afterwards, so a primed index pays
    at most one run lookup."""
    levels, dram, ranges, before, from_level, after = case

    def primed(prime):
        hier = CacheHierarchy(levels, dram)
        for addr, write in before:
            hier.access(addr, write)
        prime(hier, list(ranges), from_level)
        return hier

    hier, reference = primed(CacheHierarchy.prime), primed(_reference_prime)
    got, touched = _access_all(hier, after)
    want, _ = _access_all(reference, after)
    assert got == want
    assert json.dumps(hier.snapshot()) == json.dumps(reference.snapshot())
    if hier.dram is not None:
        assert touched <= set(hier.dram.tags)


class TestPackedVsReference:
    """Deterministic packed-vs-reference cases beside the property."""

    @pytest.mark.parametrize("scheme_name", sorted(_CATALOG))
    def test_catalog_schemes(self, scheme_name):
        """The golden config (astar, 4000 insts, seed 3), every scheme."""
        machine = skylake_machine(scaled=True)
        scheme = _CATALOG[scheme_name]()
        profile = PROFILES["astar"]
        trace = generate_trace(profile, 4_000, seed=3, instrument="pruned", packed=True)
        _assert_packed_equals_reference(trace, machine, scheme, prime_ranges(profile))

    @pytest.mark.parametrize("scheme_name", ["cwsp", "capri"])
    def test_profiles(self, scheme_name):
        """Every workload profile, two schemes with very different
        impure-event mixes."""
        machine = skylake_machine(scaled=True)
        factory = _CATALOG[scheme_name]
        for profile in PROFILES.values():
            trace = generate_trace(
                profile, 1_500, seed=11, instrument="pruned", packed=True
            )
            _assert_packed_equals_reference(trace, machine, factory())

    def test_boundary_and_fence_heavy_stream(self):
        """Adjacent rare events, a rare event first and last, and empty
        pure runs between them."""
        trace = PackedTrace("bflsbbxcafb", [0, 0, 8, 16, 0, 0, 24, 32, 0, 0, 0])
        machine = skylake_machine(scaled=True)
        for scheme in _CATALOG.values():
            _assert_packed_equals_reference(trace, machine, scheme())

    def test_empty_trace(self):
        trace = PackedTrace("", [])
        _assert_packed_equals_reference(trace, skylake_machine(scaled=True), cwsp())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trace_random_scheme(self, seed):
        """Fixed-seed cases beside the property: longer streams (800
        events) than hypothesis draws, so queues and sets fill up."""
        rng = random.Random(1000 + seed)
        codes = []
        addrs = []
        for _ in range(800):
            code = rng.choice("aaaaaaaaalllllsssscbfx")
            codes.append(code)
            addrs.append(0 if code in _NO_ADDR else rng.randrange(0, 1 << 22, 8))
        trace = PackedTrace("".join(codes), addrs)
        scheme = Scheme(
            name="fuzz",
            persist_stores=rng.random() < 0.8,
            persist_bytes=rng.choice([8, 64]),
            nvm_write_amp=rng.choice([1.0, 2.0, 8.0]),
            stall_at_boundary=rng.random() < 0.3,
            mc_speculation=rng.random() < 0.7,
            wb_delay=rng.random() < 0.5,
            wpq_load_delay=rng.random() < 0.5,
            extra_insts_per_store=rng.choice([0, 0, 1, 2]),
            extra_insts_per_region=rng.choice([0, 4]),
            ckpt_stores_per_region=rng.choice([0.0, 2.0]),
            coalesce_lines=rng.random() < 0.4,
        )
        machine = skylake_machine(scaled=True, commit_width=rng.choice([1, 2, 4]))
        _assert_packed_equals_reference(trace, machine, scheme)

    def test_non_power_of_two_commit_width(self):
        """A commit width of 3: a commit cost that is not a power of
        two, so every clock add rounds."""
        machine = skylake_machine(scaled=True, commit_width=3)
        profile = PROFILES["astar"]
        trace = generate_trace(profile, 2_000, seed=7, instrument="pruned", packed=True)
        _assert_packed_equals_reference(trace, machine, cwsp())

    @pytest.mark.parametrize("n_levels", [2, 3])
    @pytest.mark.parametrize("scheme_name", ["baseline", "cwsp", "psp_ideal"])
    def test_every_level_fills_and_evicts(self, n_levels, scheme_name):
        """Sets of 2-4 ways over 64 lines with a hot subset: every SRAM
        level evicts, and hits reorder sets before their victims are
        picked, on the inlined L1 and L2 and on the walk below them,
        with and without a DRAM cache.  Stats and final state against
        the oracle's tick LRU."""
        caches = (
            CacheConfig("L1D", 2 * 2 * 64, 2, hit_latency=4),
            CacheConfig("L2", 4 * 4 * 64, 4, hit_latency=14),
            CacheConfig("L3", 8 * 4 * 64, 4, hit_latency=44),
        )[:n_levels]
        machine = skylake_machine(
            scaled=True, caches=caches, dram_cache=DRAMCacheConfig(16 * 64, hit_latency=140)
        )
        rng = random.Random(n_levels)
        codes, addrs = [], []
        for _ in range(3_000):
            codes.append(rng.choice("aalllllsssc"))
            line = rng.randrange(8) if rng.random() < 0.5 else rng.randrange(64)
            addrs.append(line << 6 | rng.randrange(0, 64, 8))
        trace = PackedTrace("".join(codes), addrs)
        scheme = _CATALOG[scheme_name]()
        args = (trace, machine, scheme, ((0, 4 * 64), (1024, 16 * 64)), float("inf"))
        assert _single_cut(TimingSimulator, *args, finalize=True) == _single_cut(
            OracleSimulator, *args, finalize=True
        )


# ----------------------------------------------------------------------
# Batched point execution matches one point at a time
# ----------------------------------------------------------------------
#
# ``resolve_points`` runs cache misses in per-app batches that share
# one trace per key, and serves a point from a sibling's run where
# ``repro.arch.machine.serves`` allows it.  Whatever mix of points
# lands in a batch, every point's stats, simulated or served, must be
# the bytes a lone ``compute_point`` call produces.

_BATCH_MACHINES = (
    # Power-of-two set counts throughout.
    skylake_machine(scaled=True),
    # A 24-set L1 over a 24,576-line DRAM cache.
    skylake_machine(
        scaled=True,
        caches=(
            CacheConfig("L1D", 12 << 10, 8, hit_latency=4),
            CacheConfig("L2", 128 << 10, 16, hit_latency=44),
        ),
        dram_cache=DRAMCacheConfig(size_bytes=3 << 19, hit_latency=140),
    ),
    # A power-of-two L1 over a 192-set L2.
    skylake_machine(
        scaled=True,
        caches=(
            CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
            CacheConfig("L2", 192 << 10, 16, hit_latency=44),
        ),
    ),
)
_BATCH_SCHEMES = (
    baseline(), cwsp(), capri(), psp_ideal(), replace(cwsp(), pb_entries_override=4),
)


def test_batch_machines_cover_both_loops():
    """Power-of-two and other set counts, at L1 and at L2, all run the
    one fused loop: the batch machines cover each kind."""

    def pow2(n):
        return n & (n - 1) == 0

    kinds = set()
    for machine in _BATCH_MACHINES:
        levels = TimingSimulator(machine, cwsp()).hier.levels
        kinds |= {(i, pow2(level.n_sets)) for i, level in enumerate(levels[:2])}
    assert kinds == {(0, True), (0, False), (1, True), (1, False)}
    assert not all(s.dram_cache_enabled for s in _BATCH_SCHEMES)


@st.composite
def batch_misses(draw):
    # Few values per field, so batches repeat trace and prime keys and
    # hold capacity siblings: points that differ only in queue sizes.
    # Sizes of 1-64 entries fill the queues of short traces too, so a
    # sibling is served by a run only where that run left it unfilled.
    def few(strategy):
        return st.sampled_from(draw(st.lists(strategy, min_size=1, max_size=2, unique=True)))

    entries = st.integers(1, 64)
    machine = st.builds(
        replace,
        few(st.sampled_from(_BATCH_MACHINES)),
        wb_entries=few(entries),
        pb_entries=few(entries),
        rbt_entries=few(entries),
        wpq_entries=few(entries),
    )
    scheme = st.builds(
        replace,
        few(st.sampled_from(_BATCH_SCHEMES)),
        pb_entries_override=few(st.none() | entries),
        rbt_entries_override=few(st.none() | entries),
    )
    points = draw(
        st.lists(
            st.builds(
                SimPoint,
                app=few(st.sampled_from(sorted(PROFILES))),
                scheme=scheme,
                machine=machine,
                instrument=few(st.sampled_from([None, "unpruned", "pruned"])),
                n_insts=few(st.sampled_from([0, 40, 300])),
                seed=few(st.sampled_from([1, 2])),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return [(f"key-{i}", point) for i, point in enumerate(dict.fromkeys(points))]


def _stats_json(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


def _assert_batched_equals_per_point(misses, jobs):
    resolved, info = resolve_points(misses, NullCache(), jobs=jobs)
    assert info.simulated == len(misses) >= info.runs
    for _key, point in misses:
        assert _stats_json(resolved[point]) == _stats_json(compute_point(point))


# A one-entry PB fills on this trace; a 50-entry one, given by the
# machine or by a scheme override, does not.  The first point serves
# neither of the others, though their capacities are larger; the
# third, whose PB is 1 by the machine, has the first's capacities.
_FILLED_SIBLINGS = [
    (f"key-{i}", SimPoint("astar", scheme, machine, "pruned", 300, 1))
    for i, (scheme, machine) in enumerate(
        (
            (replace(cwsp(), pb_entries_override=1), _BATCH_MACHINES[0]),
            (cwsp(), _BATCH_MACHINES[0]),
            (cwsp(), replace(_BATCH_MACHINES[0], pb_entries=1)),
        )
    )
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(misses=batch_misses())
@example(misses=_FILLED_SIBLINGS)
def test_batched_resolve_matches_per_point_compute(misses):
    _assert_batched_equals_per_point(misses, jobs=1)


def test_batched_resolve_matches_per_point_compute_two_jobs(monkeypatch):
    monkeypatch.setattr(engine, "POOL_BREAK_EVEN", 0)  # pool this small plan
    machine = _BATCH_MACHINES[0]
    misses = [
        (f"key-{i}", SimPoint(app, scheme, machine, instrument, 300, seed))
        for i, (app, scheme, instrument, seed) in enumerate(
            (app, scheme, instrument, seed)
            for app in ("astar", "lbm")
            for scheme in _BATCH_SCHEMES
            for instrument in (None, "pruned")
            for seed in (1, 2)
        )
    ]
    _assert_batched_equals_per_point(misses, jobs=2)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    app=st.sampled_from(sorted(PROFILES)),
    n_insts=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
    instrument=st.sampled_from([None, "unpruned", "pruned"]),
)
def test_trace_store_round_trip(app, n_insts, seed, instrument):
    """A stored trace reads back equal to the generated one, and a
    point computed through the store, on the miss that fills it and on
    the hit, has the stats it has without one."""
    point = SimPoint(app, cwsp(), _BATCH_MACHINES[0], instrument, n_insts, seed)
    want = _stats_json(compute_point(point))
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(Path(root), "generator-salt")
        key = store.key(app, n_insts, seed, instrument)
        assert store.get(key) is None
        assert _stats_json(compute_point(point, traces=store)) == want
        stored = store.get(key)
        assert stored == generate_trace(
            PROFILES[app], n_insts, seed, instrument=instrument, packed=True
        )
        assert _stats_json(compute_point(point, traces=store)) == want


# ----------------------------------------------------------------------
# Random cut points match the reference cut
# ----------------------------------------------------------------------
#
# A cut ends a run before the first event whose pre-commit clock is at
# or past the limit.  The fused loop must stop where the per-event
# oracle of tests/sim_oracle.py stops, with the same boundary log and
# the same ``snapshot()``.  Cuts are drawn both as floats and as exact
# pre-commit clocks, where ``>=`` and ``>`` differ.


@st.composite
def cut_cases(draw):
    machine = draw(st.sampled_from(_BATCH_MACHINES))
    scheme = _CATALOG[draw(st.sampled_from(sorted(_CATALOG)))]()
    if draw(st.booleans()):
        return draw(packed_traces()), machine, scheme, ()
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    n = draw(st.integers(0, 1500))
    trace = generate_trace(
        profile, n, seed=draw(st.integers(0, 3)), instrument="pruned", packed=True
    )
    return trace, machine, scheme, tuple(prime_ranges(profile))


def _primed(cls, machine, scheme, prime):
    sim = cls(machine, scheme)
    sim.hier.prime(list(prime))
    return sim


def _cut_points(clocks):
    """Exact pre-commit clocks, the edges, and floats in between."""
    top = max(clocks, default=0.0) + 1.0
    return st.one_of(
        st.sampled_from(clocks + [0.0, float("inf")]),
        st.floats(min_value=0.0, max_value=top),
    )


def _event_clocks(trace, machine, scheme, prime):
    """Every event's pre-commit clock under the oracle, in order."""
    sim = _primed(OracleSimulator, machine, scheme, prime)
    clocks = []
    for ev in trace:
        clocks.append(sim.cycle)
        sim._step(ev)
    return clocks


def _single_cut(cls, trace, machine, scheme, prime, cut, start=0, finalize=False):
    sim = _primed(cls, machine, scheme, prime)
    log = []
    index = sim.run_until(trace, cut, start, log)
    state = json.dumps(sim.snapshot(), sort_keys=True)
    if finalize:
        return index, log, state, _stats_json(sim.finalize())
    return index, log, state


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cut_cases(), data=st.data())
def test_random_cut_matches_reference_cut(case, data):
    trace, machine, scheme, prime = case
    cut = data.draw(_cut_points(_event_clocks(trace, machine, scheme, prime)))
    start = data.draw(st.integers(0, len(trace)))
    args = (trace, machine, scheme, prime, cut, start)
    assert _single_cut(TimingSimulator, *args) == _single_cut(OracleSimulator, *args)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=packed_traces(alphabets=_RARE_ALPHABETS),
    scheme=boundary_schemes(),
    machine=st.sampled_from(_BATCH_MACHINES),
    data=st.data(),
)
def test_rare_dense_cut_matches_reference_cut(trace, scheme, machine, data):
    """The inlined boundary, fence and atomic bodies, and the PB and RBT
    state they keep in locals: cut index, boundary log, ``snapshot()``
    at the cut and the stats finalized there, against the oracle."""
    cut = data.draw(_cut_points(_event_clocks(trace, machine, scheme, ())))
    args = (trace, machine, scheme, (), cut)
    fused = _single_cut(TimingSimulator, *args, finalize=True)
    assert fused == _single_cut(OracleSimulator, *args, finalize=True)


class TestExactCuts:
    """Cuts at exact pre-commit clocks, where ``>=`` and ``>`` differ,
    on a boundary-rich stream: deterministic beside the properties."""

    MACHINE = skylake_machine(scaled=True)
    PROFILE = PROFILES["astar"]

    def _trace(self, n, seed=3):
        return generate_trace(self.PROFILE, n, seed=seed, instrument="pruned", packed=True)

    @pytest.mark.parametrize("scheme_name", ["baseline", "cwsp", "capri"])
    def test_unicore(self, scheme_name):
        scheme = _CATALOG[scheme_name]()
        trace = self._trace(1_500)
        prime = tuple(prime_ranges(self.PROFILE))
        clocks = _event_clocks(trace, self.MACHINE, scheme, prime)
        for k in (1, 500, 1_000, 1_499):
            args = (trace, self.MACHINE, scheme, prime, clocks[k])
            fused = _single_cut(TimingSimulator, *args)
            assert fused == _single_cut(OracleSimulator, *args)
            assert fused[0] == k
            assert len(fused[1]) == trace.codes.count("b", 0, k)


# ----------------------------------------------------------------------
# The multicore scheduler matches the per-event min-clock stepper
# ----------------------------------------------------------------------


@st.composite
def multicore_cases(draw):
    machine = draw(st.sampled_from(_BATCH_MACHINES))
    scheme = _CATALOG[draw(st.sampled_from(sorted(_CATALOG)))]()
    apps = draw(st.lists(st.sampled_from(sorted(PROFILES)), min_size=2, max_size=4))
    traces = [
        generate_trace(
            PROFILES[app],
            draw(st.integers(0, 600)),
            seed=i,
            instrument="pruned",
            packed=True,
        )
        for i, app in enumerate(apps)
    ]
    prime = tuple(r for app in apps for r in prime_ranges(PROFILES[app]))
    return machine, scheme, traces, prime


def _multicore_run(cls, machine, scheme, traces, prime):
    sim = cls(machine, scheme, len(traces))
    sim.prime(prime)
    stats = sim.run(traces)
    return (
        [_stats_json(core) for core in stats.per_core],
        [json.dumps(core.snapshot(), sort_keys=True) for core in sim.cores],
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=multicore_cases())
def test_multicore_run_matches_reference(case):
    """Per-core stats and final state over random 2-4-core mixes and
    cache geometries."""
    assert _multicore_run(MulticoreSimulator, *case) == _multicore_run(
        OracleMulticore, *case
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    traces=st.lists(
        packed_traces(max_size=120, alphabets=_RARE_ALPHABETS), min_size=2, max_size=4
    ),
    scheme=boundary_schemes(),
    machine=st.sampled_from(_BATCH_MACHINES),
)
def test_rare_dense_multicore_matches_reference(traces, scheme, machine):
    """Boundaries run ahead of the scheduler unless they synthesize
    checkpoint stores: per-core stats and state against the per-event
    min-clock stepper, on streams dense in boundaries, fences and
    atomics."""
    case = (machine, scheme, traces, ())
    assert _multicore_run(MulticoreSimulator, *case) == _multicore_run(
        OracleMulticore, *case
    )


# ----------------------------------------------------------------------
# Vectorised trace generation matches the per-instruction oracle
# ----------------------------------------------------------------------


def _carried(stream):
    """The state a stream carries from one block to the next."""
    state = [
        stream.emitted,
        stream.sweep,
        stream.stream_ptr,
        stream.burst_left,
        stream.burst_ptr,
        stream.rng.bit_generator.state,
    ]
    if stream.instrument is not None:
        state += [
            stream.irng.bit_generator.state,
            stream.region_left,
            stream.ckpt_accum,
            stream.slot,
        ]
    return json.dumps(state, sort_keys=True)


def _assert_stream_matches_oracle(stream, oracle):
    """Drain both streams: every block and every carried state agree."""
    while True:
        got, want = stream.next_chunk(), oracle.next_chunk()
        assert _carried(stream) == _carried(oracle)
        if got is None or want is None:
            assert got is want
            return
        assert got.codes == want.codes
        assert got.addrs == want.addrs


# Small blocks carry burst and region state across block edges.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    app=st.sampled_from(sorted(PROFILES)),
    instrument=st.sampled_from([None, "unpruned", "pruned"]),
    n_insts=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32),
    block=st.sampled_from([1, 2, 7, 257, 1000, _GEN_BLOCK]),
)
def test_stream_matches_per_instruction_oracle(app, instrument, n_insts, seed, block):
    args = (PROFILES[app], n_insts, seed, instrument, block)
    _assert_stream_matches_oracle(SyntheticStream(*args), OracleStream(*args))


@pytest.mark.parametrize("app", sorted(PROFILES))
def test_pruned_stream_matches_per_instruction_oracle(app):
    args = (PROFILES[app], 20_000, 7, "pruned")
    _assert_stream_matches_oracle(SyntheticStream(*args), OracleStream(*args))
