"""Versioned simulator checkpoints: cut any run at a cycle, resume it
bit-identically.

Every stateful layer of the simulator exposes the same two-method
protocol -- ``snapshot() -> dict`` (JSON-serializable, deterministic)
and ``restore_state(dict)`` (in place, so multicore shared structures
survive) -- from :class:`~repro.arch.queues.CompletionQueue` up
through :class:`~repro.arch.machine.TimingSimulator` and
:class:`~repro.arch.multicore.MulticoreSimulator`, with the trace
generator contributing its own resumable cursor
(:class:`~repro.workloads.synthetic.SyntheticStream`).  This module
composes them into whole-run checkpoints:

- :class:`SimCheckpoint` -- the serialized container: a versioned
  payload with machine/scheme digests, rendered as canonical JSON
  (sorted keys; Python float repr round-trips exactly), so equal
  states produce byte-equal files.
- :class:`CheckpointableRun` -- drives one
  :class:`~repro.arch.machine.TimingSimulator` over a synthetic
  stream or an externally supplied trace, supports cycle- and
  event-budget cuts, and checkpoints/resumes at any cut.
- :class:`MulticoreCheckpointableRun` -- the same over
  :class:`~repro.arch.multicore.MulticoreSimulator`, with per-core
  trace cursors.

Both drive the simulators' one event loop: every cut, whole run and
resume goes through ``run_until``, the same fused loop an
uninterrupted run takes.

The identity contract: *cut + checkpoint + JSON round trip + resume +
run to end* must produce stats byte-identical to the uninterrupted
run.  ``python -m repro.arch.checkpoint --selftest`` sweeps cut
points across schemes for both the unicore and multicore simulators
and exits nonzero on any divergence (wired into CI).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.arch.machine import INF, SimStats, TimingSimulator
from repro.arch.multicore import MulticoreSimulator, MulticoreStats
from repro.arch.scheme import Scheme
from repro.arch.trace import PackedTrace, as_packed

if TYPE_CHECKING:  # runtime import is deferred: workloads imports arch
    from repro.workloads.synthetic import SyntheticStream

#: Bump on any incompatible payload or snapshot layout change.
CHECKPOINT_VERSION = 1


def _json_default(obj):
    # numpy integers can appear inside PCG64 bit-generator state dicts
    # on some numpy versions; everything else is a genuine error.
    if hasattr(obj, "item") and isinstance(obj.item(), (int, float)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical_json(payload) -> str:
    """Deterministic serialization: sorted keys, exact float repr."""
    return json.dumps(payload, sort_keys=True, default=_json_default)


def config_digest(obj) -> str:
    """Short content hash of a frozen config dataclass (machine or
    scheme); a resumed checkpoint must match the one it was cut on."""
    return hashlib.sha256(
        canonical_json(asdict(obj)).encode("ascii")
    ).hexdigest()[:16]


class SimCheckpoint:
    """A versioned, serialized simulator state."""

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = payload

    def to_json(self) -> str:
        return canonical_json(self.payload)

    @classmethod
    def from_json(cls, text: str) -> "SimCheckpoint":
        payload = json.loads(text)
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version!r}, expected {CHECKPOINT_VERSION}"
            )
        return cls(payload)

    def save(self, path) -> None:
        """Write atomically: a sibling temp file replaces *path*, so a
        writer killed mid-save leaves the previous checkpoint intact."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(self.to_json() + "\n", encoding="ascii")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "SimCheckpoint":
        return cls.from_json(Path(path).read_text(encoding="ascii"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimCheckpoint(kind={self.payload.get('kind')!r}, "
            f"events_done={self.payload.get('events_done')})"
        )


def _validate(payload: Dict[str, object], kind: str, machine, scheme) -> None:
    if payload.get("kind") != kind:
        raise ValueError(f"checkpoint kind {payload.get('kind')!r}, expected {kind!r}")
    if payload["machine"] != config_digest(machine):
        raise ValueError("checkpoint was cut on a different machine config")
    if payload["scheme"] != config_digest(scheme):
        raise ValueError(
            f"checkpoint was cut under scheme {payload.get('scheme_name')!r} "
            "with different knobs"
        )


class CheckpointableRun:
    """One unicore simulation that can be cut, persisted, and resumed.

    The trace source is either a resumable
    :class:`~repro.workloads.synthetic.SyntheticStream` (the generator
    state rides inside the checkpoint, so nothing but the checkpoint
    file is needed to resume) or an externally supplied trace (the
    checkpoint records its content digest and cursor; the caller must
    re-supply the same trace at resume).  Chunks are consumed one at a
    time, so memory stays bounded by the stream's block size.
    """

    def __init__(
        self,
        machine: MachineConfig,
        scheme: Scheme,
        stream: Optional[SyntheticStream] = None,
        trace=None,
        prime: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        if (stream is None) == (trace is None):
            raise ValueError("provide exactly one of stream= or trace=")
        self.machine = machine
        self.scheme = scheme
        self.sim = TimingSimulator(machine, scheme)
        if prime is not None:
            self.sim.hier.prime(list(prime))
        self.stream = stream
        self.events_done = 0
        self._exhausted = False
        self._chunk_state: Optional[Dict[str, object]] = None
        self._pos = 0
        if trace is not None:
            trace = as_packed(trace)
            self._chunk: Optional[PackedTrace] = trace
            self._trace_digest = trace.digest()
        else:
            self._chunk = None
            self._trace_digest = None

    # -- chunk plumbing ------------------------------------------------
    def _ensure_chunk(self) -> Optional[PackedTrace]:
        if self._chunk is not None:
            return self._chunk
        if self.stream is None or self._exhausted:
            return None
        # Snapshot *before* generating: resuming restores this state
        # and regenerates the chunk bit-identically.
        self._chunk_state = self.stream.snapshot()
        self._chunk = self.stream.next_chunk()
        if self._chunk is None:
            self._exhausted = True
        return self._chunk

    def _retire_chunk(self) -> None:
        if self.stream is not None:
            self._chunk = None
            self._pos = 0

    @property
    def done(self) -> bool:
        chunk = self._chunk
        if chunk is not None and self._pos < len(chunk):
            return False
        if self.stream is None:
            return True
        return self._exhausted and (chunk is None or self._pos >= len(chunk))

    # -- driving -------------------------------------------------------
    def _advance(self, cycle_limit: float = INF, budget: Optional[int] = None) -> int:
        """Commit events chunk by chunk until the clock reaches
        *cycle_limit*, *budget* events have run, or the trace ends;
        returns the number executed.  The cut falls between committed
        events -- see :meth:`TimingSimulator.run_until`."""
        sim = self.sim
        executed = 0
        while (budget is None or executed < budget) and sim.cycle < cycle_limit:
            chunk = self._ensure_chunk()
            if chunk is None:
                break
            start = self._pos
            if start < len(chunk):
                stop = None if budget is None else start + budget - executed
                self._pos = sim.run_until(chunk, cycle_limit, start, stop)
                executed += self._pos - start
            if self._pos >= len(chunk):
                if self.stream is None:
                    break
                self._retire_chunk()
        self.events_done += executed
        return executed

    def run_to_cycle(self, cycle_limit: float) -> float:
        """Run until the clock reaches *cycle_limit* (or the trace
        ends); returns the clock."""
        self._advance(cycle_limit=cycle_limit)
        return self.sim.cycle

    def run_for_events(self, budget: int) -> int:
        """Execute up to *budget* events; returns the number executed."""
        return self._advance(budget=budget)

    def run_to_end(self) -> SimStats:
        """Consume everything that remains and finalize the stats."""
        self._advance()
        return self.sim.finalize()

    # -- checkpoint / resume -------------------------------------------
    def checkpoint(self) -> SimCheckpoint:
        """Capture the full run state at the current cut."""
        if self.stream is not None:
            if self._chunk is None:
                # Between chunks (or exhausted): the stream is *at* the
                # boundary, so its live state is the one to record.
                state = self.stream.snapshot()
                pos = 0
            else:
                state = self._chunk_state
                pos = self._pos
            trace_desc: Dict[str, object] = {
                "kind": "stream",
                "spec": self.stream.spec(),
                "state": state,
                "pos": pos,
                "exhausted": self._exhausted,
            }
        else:
            trace_desc = {
                "kind": "external",
                "digest": self._trace_digest,
                "pos": self._pos,
            }
        return SimCheckpoint(
            {
                "version": CHECKPOINT_VERSION,
                "kind": "unicore",
                "machine": config_digest(self.machine),
                "scheme": config_digest(self.scheme),
                "scheme_name": self.scheme.name,
                "events_done": self.events_done,
                "sim": self.sim.snapshot(),
                "trace": trace_desc,
            }
        )

    @classmethod
    def resume(
        cls,
        ckpt: SimCheckpoint,
        machine: MachineConfig,
        scheme: Scheme,
        trace=None,
    ) -> "CheckpointableRun":
        """Reconstruct a run from a checkpoint (no priming: the warmed
        cache state is part of the snapshot)."""
        from repro.workloads.synthetic import SyntheticStream

        payload = ckpt.payload
        _validate(payload, "unicore", machine, scheme)
        desc = payload["trace"]
        if desc["kind"] == "stream":
            stream = SyntheticStream.from_spec(desc["spec"])
            stream.restore(desc["state"])
            run = cls(machine, scheme, stream=stream)
            run._exhausted = desc["exhausted"]
            run._pos = desc["pos"]
        else:
            if trace is None:
                raise ValueError(
                    "checkpoint references an external trace; pass trace="
                )
            run = cls(machine, scheme, trace=trace)
            if run._trace_digest != desc["digest"]:
                raise ValueError("supplied trace differs from the checkpointed one")
            run._pos = desc["pos"]
        run.events_done = payload["events_done"]
        run.sim.restore_state(payload["sim"])
        return run


class MulticoreCheckpointableRun:
    """A cut-and-resume driver over the multicore simulator.

    Traces are externally supplied (one per core); the checkpoint
    records their content digests plus per-core cursors and the cores'
    snapshots (shared structures captured once, by core 0).  All
    driving goes through :meth:`MulticoreSimulator.run_until`.
    """

    def __init__(
        self,
        machine: MachineConfig,
        scheme: Scheme,
        traces: Sequence,
        n_cores: Optional[int] = None,
        prime: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        self.machine = machine
        self.scheme = scheme
        self.traces: List[PackedTrace] = [as_packed(t) for t in traces]
        self.sim = MulticoreSimulator(machine, scheme, n_cores or len(self.traces))
        if prime is not None:
            self.sim.prime(list(prime))
        self.cursors = [0] * len(self.traces)

    @property
    def done(self) -> bool:
        return all(c >= len(t) for c, t in zip(self.cursors, self.traces))

    def run_to_cycle(self, cycle_limit: float) -> List[int]:
        self.cursors = self.sim.run_until(self.traces, cycle_limit, self.cursors)
        return self.cursors

    def run_for_events(self, budget: int) -> List[int]:
        self.cursors = self.sim.run_until(
            self.traces, INF, self.cursors, max_events=budget
        )
        return self.cursors

    def run_to_end(self) -> MulticoreStats:
        self.cursors = self.sim.run_until(self.traces, INF, self.cursors)
        return self.sim._finalize()

    def checkpoint(self) -> SimCheckpoint:
        return SimCheckpoint(
            {
                "version": CHECKPOINT_VERSION,
                "kind": "multicore",
                "machine": config_digest(self.machine),
                "scheme": config_digest(self.scheme),
                "scheme_name": self.scheme.name,
                "events_done": sum(self.cursors),
                "cursors": list(self.cursors),
                "traces": [t.digest() for t in self.traces],
                "sim": self.sim.snapshot(),
            }
        )

    @classmethod
    def resume(
        cls,
        ckpt: SimCheckpoint,
        machine: MachineConfig,
        scheme: Scheme,
        traces: Sequence,
    ) -> "MulticoreCheckpointableRun":
        payload = ckpt.payload
        _validate(payload, "multicore", machine, scheme)
        run = cls(machine, scheme, traces, n_cores=payload["sim"]["n_cores"])
        digests = [t.digest() for t in run.traces]
        if digests != payload["traces"]:
            raise ValueError("supplied traces differ from the checkpointed ones")
        run.cursors = list(payload["cursors"])
        run.sim.restore_state(payload["sim"])
        return run


# ----------------------------------------------------------------------
# Self-test: cut-anywhere identity, used by CI and `--selftest`.
# ----------------------------------------------------------------------

def _stats_dict(stats) -> Dict[str, object]:
    return stats.metrics.to_dict()


def selftest(
    n_insts: int = 4000,
    seed: int = 3,
    cut_fracs: Sequence[float] = (0.25, 0.5, 0.75),
    scheme_names: Sequence[str] = ("baseline", "cwsp", "capri", "replaycache"),
) -> Dict[str, object]:
    """Sweep checkpoint cuts across schemes, unicore and multicore.

    For every scheme: run uninterrupted for the golden stats, then cut
    at each fraction of the golden cycle count, checkpoint, round-trip
    through canonical JSON, resume into a fresh simulator, run to
    completion, and demand byte-identical metric dicts.  One
    event-budget cut per scheme exercises the second cut mode.  Returns
    a report artifact; ``divergences`` must be 0.
    """
    from repro.arch.config import skylake_machine
    from repro.arch.machine import simulate
    from repro.arch.multicore import simulate_multicore
    from repro.schemes.catalog import baseline, capri, cwsp, replaycache
    from repro.workloads.profiles import PROFILES
    from repro.workloads.synthetic import (
        SyntheticStream,
        generate_trace,
        prime_ranges,
    )

    factories = {
        "baseline": baseline,
        "cwsp": cwsp,
        "capri": capri,
        "replaycache": replaycache,
    }
    machine = skylake_machine(scaled=True)
    profile = PROFILES["astar"]
    prime = prime_ranges(profile)
    cases: List[Dict[str, object]] = []
    divergences = 0

    def record(case: str, golden: Dict, resumed: Dict) -> None:
        nonlocal divergences
        ok = golden == resumed
        if not ok:
            divergences += 1
        cases.append({"case": case, "identical": ok})

    for name in scheme_names:
        scheme = factories[name]()
        trace = generate_trace(profile, n_insts, seed=seed, instrument="pruned",
                               packed=True)
        golden = _stats_dict(simulate(trace, machine, scheme, prime=prime))
        golden_cycles = None
        for k, v in golden.items():
            if k == "core.cycles":
                golden_cycles = v[1]
        for frac in cut_fracs:
            cut = golden_cycles * frac
            run = CheckpointableRun(
                machine,
                scheme,
                stream=SyntheticStream(profile, n_insts, seed, "pruned"),
                prime=prime,
            )
            run.run_to_cycle(cut)
            ckpt = SimCheckpoint.from_json(run.checkpoint().to_json())
            resumed = CheckpointableRun.resume(ckpt, machine, scheme)
            record(
                f"unicore:{name}:cycle={frac}",
                golden,
                _stats_dict(resumed.run_to_end()),
            )
        # One event-budget cut (packed whole chunks + partial tail).
        run = CheckpointableRun(
            machine,
            scheme,
            stream=SyntheticStream(profile, n_insts, seed, "pruned"),
            prime=prime,
        )
        run.run_for_events(max(1, len(trace) // 3))
        ckpt = SimCheckpoint.from_json(run.checkpoint().to_json())
        resumed = CheckpointableRun.resume(ckpt, machine, scheme)
        record(f"unicore:{name}:events", golden, _stats_dict(resumed.run_to_end()))

    # Multicore: external traces, shared-structure snapshot split.
    mc_profiles = [PROFILES[a] for a in ("astar", "bzip2")]
    mc_traces = [
        generate_trace(p, n_insts, seed=seed + i, instrument="pruned", packed=True)
        for i, p in enumerate(mc_profiles)
    ]
    mc_prime = [r for p in mc_profiles for r in prime_ranges(p)]
    for name in ("baseline", "cwsp"):
        scheme = factories[name]()
        mstats = simulate_multicore(mc_traces, machine, scheme, prime=mc_prime)
        golden = _stats_dict(mstats.merged())
        makespan = mstats.cycles
        for frac in cut_fracs:
            run = MulticoreCheckpointableRun(
                machine, scheme, mc_traces, prime=mc_prime
            )
            run.run_to_cycle(makespan * frac)
            ckpt = SimCheckpoint.from_json(run.checkpoint().to_json())
            resumed = MulticoreCheckpointableRun.resume(
                ckpt, machine, scheme, mc_traces
            )
            record(
                f"multicore:{name}:cycle={frac}",
                golden,
                _stats_dict(resumed.run_to_end().merged()),
            )

    return {
        "n_insts": n_insts,
        "seed": seed,
        "cut_fracs": list(cut_fracs),
        "cases": cases,
        "divergences": divergences,
    }


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.arch.checkpoint",
        description="Checkpoint/resume identity self-test.",
    )
    parser.add_argument("--selftest", action="store_true", required=True,
                        help="run the cut-anywhere identity sweep")
    parser.add_argument("--n-insts", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report artifact here")
    opts = parser.parse_args(argv)
    report = selftest(n_insts=opts.n_insts, seed=opts.seed)
    if opts.out:
        Path(opts.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="ascii"
        )
    n = len(report["cases"])
    bad = report["divergences"]
    print(f"checkpoint selftest: {n - bad}/{n} cases identical")
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_main())
