"""PackedTrace: representation round-trips and simulator value identity.

The packed/legacy contract is the PR's core invariant: the batched
representation and the per-event tuple list must be interchangeable
everywhere, and ``TimingSimulator.run`` must produce byte-identical
stats for either form of the same stream.
"""

import pytest

from repro.arch.config import machine_with_cache_levels, skylake_machine
from repro.arch.machine import TimingSimulator, simulate
from repro.arch.trace import (
    CODES,
    CODES_NO_ADDR,
    CODES_WITH_ADDR,
    EventView,
    PackedTrace,
    unpack_events,
)
from repro.schemes.catalog import baseline, capri, cwsp, ido, psp_ideal, replaycache
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_trace, prime_ranges
from tests.sim_oracle import oracle_simulate

SCHEME_FACTORIES = {
    "baseline": baseline,
    "cwsp": cwsp,
    "capri": capri,
    "replaycache": replaycache,
    "ido": ido,
    "psp_ideal": psp_ideal,
}


class TestPackedTrace:
    def test_code_sets_partition(self):
        assert CODES_NO_ADDR & CODES_WITH_ADDR == frozenset()
        assert CODES == CODES_NO_ADDR | CODES_WITH_ADDR

    def test_round_trip_from_events(self):
        events = [("l", 64), ("a",), ("s", 128), ("b",), ("c", 8), ("f",), ("x", 72)]
        packed = PackedTrace.from_events(events)
        assert len(packed) == len(events)
        assert packed.to_events() == events
        assert list(packed) == events
        assert [packed[i] for i in range(len(packed))] == events

    def test_equality(self):
        a = PackedTrace("la", [8, 0])
        assert a == PackedTrace("la", [8, 0])
        assert a != PackedTrace("ls", [8, 0])
        assert a != PackedTrace("la", [8, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PackedTrace("ll", [8])

    def test_invalid_codes_rejected_at_construction(self):
        """Constructing with an unknown event code fails immediately,
        naming the offending code(s) -- not thousands of events later
        inside a simulator loop."""
        with pytest.raises(ValueError, match=r"invalid event code\(s\) \['z'\]"):
            PackedTrace("lza", [8, 0, 0])
        with pytest.raises(ValueError, match=r"\['q', 'z'\]"):
            PackedTrace("zq", [0, 0])
        # The error message lists the valid alphabet.
        with pytest.raises(ValueError, match="valid codes are"):
            PackedTrace("?", [0])

    def test_digest_layout_pinned(self):
        """digest() must keep the historical byte layout: the code
        string, then each address as 10 bytes little-endian, in order.

        Checked two ways: against a literal reimplementation of the
        per-address update loop, and against a pinned hex so *any*
        layout change -- including to the reimplementation -- trips the
        test.  Checkpoint files and the trace cache store these hashes;
        changing the layout would orphan all of them.
        """
        import hashlib

        trace = PackedTrace("lasbcfx", [64, 0, 128, 0, 8, 0, 1 << 40])
        h = hashlib.sha256()
        h.update(trace.codes.encode("ascii"))
        for addr in trace.addrs:
            h.update(addr.to_bytes(10, "little", signed=False))
        assert trace.digest() == h.hexdigest()
        assert trace.digest() == (
            "3bc575960bce08ede31a8b768d70259bb9f26f4b8c527ad3ee87ff287173792a"
        )

    def test_digest_stability_on_generated_stream(self):
        """Pinned digest of a generated stream: trips if either the
        generator output or the digest algorithm drifts."""
        trace = generate_trace(
            PROFILES["astar"], 2_000, seed=5, instrument="pruned", packed=True
        )
        assert trace.digest() == (
            "10c1052f43d9dee052e0accaa65f4ffeeadab43af7ff0bff3f1b7cf9ff8996ca"
        )

    def test_pickle_round_trip(self):
        """Traces cross process boundaries (worker pools): pickling
        round-trips the stream exactly."""
        import pickle

        trace = PackedTrace("lsa", [8, 16, 0])
        clone = pickle.loads(pickle.dumps(trace))
        assert clone == trace
        assert clone.codes == "lsa" and clone.addrs == [8, 16, 0]

    def test_generator_packed_matches_legacy(self):
        profile = PROFILES["astar"]
        for mode in (None, "unpruned", "pruned"):
            legacy = generate_trace(profile, 4_000, seed=2, instrument=mode)
            packed = generate_trace(
                profile, 4_000, seed=2, instrument=mode, packed=True
            )
            assert isinstance(packed, PackedTrace)
            # The unpacked form is a zero-copy view over the same packed
            # columns, interchangeable with the old tuple list.
            assert isinstance(legacy, EventView)
            assert legacy.packed is not None
            assert packed.to_events() == list(legacy)
            assert PackedTrace.from_events(list(legacy)) == packed
            assert legacy == packed.to_events()
            assert packed.to_events() == legacy

    def test_event_view_semantics(self):
        events = [("l", 64), ("a",), ("s", 128), ("b",)]
        packed = PackedTrace.from_events(events)
        view = packed.view()
        assert len(view) == len(events)
        assert list(view) == events
        assert view[2] == ("s", 128)
        assert view == events and events == view
        assert view == packed and view == PackedTrace.from_events(events).view()
        assert view != events[:-1]
        assert unpack_events(view) is packed
        assert unpack_events(events) is events


class TestSimulatorValueIdentity:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_packed_equals_legacy_stats(self, scheme_name):
        """run(PackedTrace), run(list) and the per-event oracle on the
        list agree to the last bit."""
        profile = PROFILES["xsbench"]
        machine = skylake_machine(scaled=True)
        prime = prime_ranges(profile)
        packed = generate_trace(
            profile, 8_000, seed=5, instrument="pruned", packed=True
        )
        legacy = packed.to_events()
        assert type(legacy) is list
        factory = SCHEME_FACTORIES[scheme_name]
        s_legacy = simulate(legacy, machine, factory(), prime=prime)
        s_packed = simulate(packed, machine, factory(), prime=prime)
        s_oracle = oracle_simulate(legacy, machine, factory(), prime=prime)
        assert s_packed.to_dict() == s_legacy.to_dict() == s_oracle.to_dict()

    def test_packed_equals_legacy_on_nonconforming_geometry(self):
        """A three-level hierarchy: the fused loop enters the
        ``CacheHierarchy.miss`` walk below L2 and still agrees."""
        profile = PROFILES["astar"]
        machine = machine_with_cache_levels(3)
        prime = prime_ranges(profile)
        packed = generate_trace(
            profile, 6_000, seed=1, instrument="pruned", packed=True
        )
        legacy = packed.to_events()
        assert type(legacy) is list
        s_legacy = oracle_simulate(legacy, machine, cwsp(), prime=prime)
        s_packed = simulate(packed, machine, cwsp(), prime=prime)
        assert s_packed.to_dict() == s_legacy.to_dict()

    def test_fast_path_actually_engaged(self, monkeypatch):
        """Packed traces and plain lists alike run the fused loop."""
        calls = []
        orig = TimingSimulator._packed_gen

        def spy(self, trace, *args):
            calls.append(type(trace))
            return orig(self, trace, *args)

        monkeypatch.setattr(TimingSimulator, "_packed_gen", spy)
        machine = skylake_machine(scaled=True)
        events = [("l", 64), ("a",), ("s", 128), ("b",)]
        for trace in (events, PackedTrace.from_events(events)):
            simulate(trace, machine, cwsp())
        assert calls == [PackedTrace, PackedTrace]

    def test_run_accepts_iterables(self):
        """Generators (no len) are packed at entry like any stream."""
        profile = PROFILES["astar"]
        machine = skylake_machine(scaled=True)
        legacy = generate_trace(profile, 3_000, seed=9, instrument="pruned")
        s_list = simulate(legacy, machine, cwsp(), prime=prime_ranges(profile))
        s_iter = simulate(
            iter(legacy), machine, cwsp(), prime=prime_ranges(profile)
        )
        assert s_iter.to_dict() == s_list.to_dict()
