"""Workload profiles, synthetic trace generation, and the IR adapter."""

import pytest

from repro.ir.interpreter import Interpreter
from repro.workloads import (
    ALL_APPS,
    MEMORY_INTENSIVE,
    PROFILES,
    SUITES,
    apps_in_suite,
    generate_trace,
)
from repro.workloads.adapter import events_from_ir_trace, trace_ir_program
from repro.arch.trace import PackedTrace
from repro.workloads.synthetic import _GEN_BLOCK, SyntheticStream, prime_ranges
from tests.conftest import build_rmw_loop
from tests.trace_oracle import trace_digest


class TestProfiles:
    def test_exactly_37_apps(self):
        assert len(ALL_APPS) == 37

    def test_all_suites_populated(self):
        for suite in SUITES:
            assert apps_in_suite(suite), suite

    def test_suite_partition(self):
        total = sum(len(apps_in_suite(s)) for s in SUITES)
        assert total == 37

    def test_class_weights_normalized(self):
        for p in PROFILES.values():
            assert sum(w for _, w in p.load_classes) == pytest.approx(1.0)
            assert sum(w for _, w in p.store_classes) == pytest.approx(1.0)

    def test_fractions_sane(self):
        for p in PROFILES.values():
            assert 0 < p.load_frac < 1
            assert 0 < p.store_frac < 1
            assert p.alu_frac > 0

    def test_splash_regions_shortest(self):
        splash = [PROFILES[a].region_len for a in apps_in_suite("SPLASH3")]
        cpu = [PROFILES[a].region_len for a in apps_in_suite("CPU2006")]
        assert max(splash) < min(cpu)

    def test_memory_intensive_subset_valid(self):
        assert set(MEMORY_INTENSIVE) <= set(ALL_APPS)

    def test_pruning_reduces_checkpoint_density(self):
        for p in PROFILES.values():
            assert p.ckpts_pruned < p.ckpts_unpruned


class TestGenerator:
    def test_deterministic(self):
        p = PROFILES["astar"]
        t1 = generate_trace(p, 2000, seed=3)
        t2 = generate_trace(p, 2000, seed=3)
        assert t1 == t2

    def test_seed_changes_trace(self):
        p = PROFILES["astar"]
        assert generate_trace(p, 2000, seed=3) != generate_trace(p, 2000, seed=4)

    def test_core_stream_identical_across_instrumentation(self):
        p = PROFILES["lbm"]
        plain = generate_trace(p, 3000, seed=1)
        instr = generate_trace(p, 3000, seed=1, instrument="pruned")
        core = [e for e in instr if e[0] not in ("b", "c")]
        assert core == plain

    def test_instrumented_has_boundaries_and_ckpts(self):
        p = PROFILES["radix"]
        tr = generate_trace(p, 3000, seed=1, instrument="unpruned")
        kinds = {e[0] for e in tr}
        assert "b" in kinds and "c" in kinds

    def test_unpruned_has_more_ckpts_than_pruned(self):
        p = PROFILES["water-ns"]
        un = generate_trace(p, 5000, seed=1, instrument="unpruned")
        pr = generate_trace(p, 5000, seed=1, instrument="pruned")
        count = lambda tr: sum(1 for e in tr if e[0] == "c")
        assert count(un) > count(pr)

    def test_region_length_matches_profile(self):
        p = PROFILES["namd"]
        tr = generate_trace(p, 50_000, seed=1, instrument="pruned")
        boundaries = sum(1 for e in tr if e[0] == "b")
        core = sum(1 for e in tr if e[0] not in ("b", "c"))
        assert core / boundaries == pytest.approx(p.region_len, rel=0.25)

    def test_atomics_present_when_configured(self):
        tr = generate_trace(PROFILES["kmeans"], 20_000, seed=1)
        assert any(e[0] == "x" for e in tr)
        tr2 = generate_trace(PROFILES["namd"], 20_000, seed=1)
        assert not any(e[0] == "x" for e in tr2)

    def test_mix_roughly_matches_fractions(self):
        p = PROFILES["soplex"]
        tr = generate_trace(p, 40_000, seed=2)
        loads = sum(1 for e in tr if e[0] == "l") / len(tr)
        stores = sum(1 for e in tr if e[0] == "s") / len(tr)
        assert loads == pytest.approx(p.load_frac, abs=0.02)
        assert stores == pytest.approx(p.store_frac, abs=0.02)

    def test_addresses_word_aligned(self):
        tr = generate_trace(PROFILES["lbm"], 5000, seed=1)
        for e in tr:
            if len(e) > 1:
                assert e[1] % 8 == 0

    def test_apps_use_disjoint_address_spaces(self):
        t1 = generate_trace(PROFILES["namd"], 2000, seed=1)
        t2 = generate_trace(PROFILES["lbm"], 2000, seed=1)
        a1 = {e[1] for e in t1 if len(e) > 1}
        a2 = {e[1] for e in t2 if len(e) > 1}
        assert not (a1 & a2)

    def test_bad_instrument_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(PROFILES["namd"], 100, instrument="bogus")

    @pytest.mark.parametrize("block", [0, -1])
    def test_nonpositive_block_rejected(self, block):
        # A block below 1 would emit empty chunks forever.
        with pytest.raises(ValueError, match=f"block {block}"):
            SyntheticStream(PROFILES["namd"], 100, block=block)

    def test_prime_ranges_cover_used_classes(self):
        ranges = prime_ranges(PROFILES["xsbench"])
        assert len(ranges) >= 4
        for base, size in ranges:
            assert size > 0 and base % 8 == 0

    def test_burst_stores_sequential(self):
        p = PROFILES["radix"]
        tr = generate_trace(p, 30_000, seed=1)
        stores = [e[1] for e in tr if e[0] == "s"]
        seq_pairs = sum(
            1 for a, b in zip(stores, stores[1:]) if b - a == 8
        )
        assert seq_pairs / len(stores) > 0.15  # bursty store stream


class TestStreamDeterminism:
    """Pinned stream digests (:func:`tests.trace_oracle.trace_digest`).

    Any generator change that moves a pin moves every golden; it must
    only change deliberately.
    """

    #: The golden-sized astar stream (the exact trace the golden-identity
    #: suite simulates).
    GOLDEN_STREAM_DIGEST = (
        "062ea8d28a47fdfc84b7e1f79b792f74e242e2328469ad17aa01ca461b868acd"
    )

    #: A stream spanning three internal generation blocks: guards the
    #: carried-state handoff (sweep pointers, burst state,
    #: instrumentation RNG) across block boundaries.
    MULTIBLOCK_N_INSTS = 2 * _GEN_BLOCK + 12_345
    MULTIBLOCK_STREAM_DIGEST = (
        "9d417615a70fb060a95d53f4b49d8b9c3fffff426c8919c0952f9993b45ab14c"
    )

    def test_golden_stream_digest_pinned(self):
        trace = generate_trace(
            PROFILES["astar"], 4_000, seed=3, instrument="pruned", packed=True
        )
        assert trace_digest(trace) == self.GOLDEN_STREAM_DIGEST

    def test_multiblock_digest_and_chunk_independence(self):
        """Whole-trace and chunk-at-a-time consumption emit one stream.

        The generation block is an internal constant, so block
        boundaries fall in the same places no matter how the consumer
        drains the stream; the concatenated chunks hash to the same
        pinned digest as the one-shot trace.
        """
        args = (PROFILES["astar"], self.MULTIBLOCK_N_INSTS)
        whole = generate_trace(*args, seed=3, instrument="pruned", packed=True)
        assert trace_digest(whole) == self.MULTIBLOCK_STREAM_DIGEST
        chunks = list(SyntheticStream(*args, seed=3, instrument="pruned"))
        assert len(chunks) == 3
        assert trace_digest(PackedTrace.concat(chunks)) == self.MULTIBLOCK_STREAM_DIGEST
        # Bounded memory: no chunk materializes more than one generation
        # block of instructions (plus instrumentation events).
        assert all(len(c) <= 2 * _GEN_BLOCK for c in chunks)


class TestAdapter:
    def test_ir_trace_adapts(self, rmw_loop):
        _, events = Interpreter(rmw_loop).run_trace()
        adapted = events_from_ir_trace(events)
        assert len(adapted) == len(events)
        assert {e[0] for e in adapted} <= {"a", "l", "s", "c", "b", "f", "x"}

    def test_ckpt_stores_marked(self):
        from repro.compiler import compile_module

        module = build_rmw_loop()
        compile_module(module)
        events = trace_ir_program(module)
        kinds = {e[0] for e in events}
        assert "c" in kinds and "b" in kinds

    def test_adapted_trace_simulates(self, rmw_loop):
        from repro.arch import simulate, skylake_machine
        from repro.schemes import baseline

        events = trace_ir_program(rmw_loop, spill_args=False)
        stats = simulate(events, skylake_machine(scaled=True), baseline())
        assert stats.insts == len(events)
