"""Synthetic trace generation from an :class:`AppProfile`.

The *core* instruction stream (ALU/load/store/atomic with addresses)
is a pure function of ``(profile, n_insts, seed)`` -- identical across
scheme variants, like the same program binary.  *Instrumentation*
(region boundaries and checkpoint stores) is layered on top from an
independent RNG stream, modelling the compiled-with-cWSP binary.

Access pattern.  Each working-set class is walked sequentially (with
wraparound) -- the array-sweep behaviour of the paper's HPC and SPEC
workloads -- fetching a new cache line every 8 word accesses.  With
probability ``profile.jump_frac`` an access jumps to a random word of
its class instead (pointer-chasing behaviour; xsbench's random
cross-section lookups set this high).  The ``stream`` class never
wraps: pure compulsory-miss streaming, which is also where SPLASH3's
sequential write bursts land.  Traces are short samples of long
executions, so the harness warms the hierarchy with
:func:`prime_ranges` before timing (see ``CacheHierarchy.prime``).

Streaming.  Generation is chunked: :class:`SyntheticStream` emits the
stream in fixed ``_GEN_BLOCK``-instruction blocks, drawing each
block's random arrays on demand and carrying the sweep pointers,
burst state, and instrumentation state across blocks.  The block size
is an *internal generation constant*, never a consumer choice, so the
emitted stream for a given ``(profile, n_insts, seed, instrument)``
is one fixed sequence regardless of how it is consumed -- whole
(:func:`generate_trace` concatenates the blocks), chunk-at-a-time
(``TimingSimulator.run_stream``, bounded memory for 10^7+-event
runs), or cut-and-resumed (the stream's :meth:`~SyntheticStream
.snapshot`/:meth:`~SyntheticStream.restore` capture the carried state
plus both PRNG states at block boundaries -- the checkpoint layer's
trace descriptor).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.arch.trace import EventView, PackedTrace
from repro.workloads.profiles import AppProfile, CLASS_SIZES, PROFILES

Event = Tuple

#: Per-app virtual address spacing; classes live at fixed offsets.
_APP_STRIDE = 1 << 36
_CLASS_OFFSETS = {
    "hot": 0x0_0000_0000,
    "warm": 0x0_1000_0000,
    "mid": 0x0_2000_0000,
    "big": 0x0_3000_0000,
    "huge": 0x0_4000_0000,
    "stream": 0x0_8000_0000,
}
_CKPT_OFFSET = 0x0_F000_0000
_CKPT_SLOTS = 32
_BURST_MEAN_WORDS = 12

#: Internal generation block, in core instructions.  Fixed so the
#: emitted stream is chunk-size independent by construction: every RNG
#: array draw covers exactly one block, and consumers never influence
#: where block boundaries fall.  2**17 keeps all historical trace
#: sizes (golden 4k, CI 8k, experiments 50k, bench 120k) within a
#: single block, so their streams are bit-identical to the one-pass
#: generator this replaced.
_GEN_BLOCK = 131072


def _app_base(name: str) -> int:
    # Stable (PYTHONHASHSEED-independent) app id.
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0x3FF
    return (1 + h) * _APP_STRIDE


def prime_ranges(profile: AppProfile) -> List[Tuple[int, int]]:
    """(base, size) ranges to warm the hierarchy with, for this app."""
    base = _app_base(profile.name)
    used = {name for name, w in profile.load_classes if w > 0}
    used |= {name for name, w in profile.store_classes if w > 0}
    if profile.atomics_per_kinst > 0:
        used.add("hot")
    used.discard("stream")  # compulsory by definition
    return [(base + _CLASS_OFFSETS[c], CLASS_SIZES[c]) for c in sorted(used)]


def _class_sampler(weights, rng: np.random.Generator, n: int):
    names = [w[0] for w in weights]
    probs = np.array([w[1] for w in weights])
    probs = probs / probs.sum()
    return names, rng.choice(len(names), size=n, p=probs)


class SyntheticStream:
    """Resumable chunked generator of one application's event stream.

    ``next_chunk()`` returns the next :class:`PackedTrace` block (or
    ``None`` when ``n_insts`` core instructions have been emitted).
    ``snapshot()``/``restore()`` capture/reinstate the generator state
    *between* blocks -- carried pointers plus the exact NumPy PCG64
    bit-generator states -- so a consumer can persist a mid-trace
    checkpoint and regenerate the remaining stream bit-identically
    without replaying the prefix.
    """

    def __init__(
        self,
        profile: AppProfile,
        n_insts: int = 100_000,
        seed: int = 0,
        instrument: Optional[str] = None,
        block: int = _GEN_BLOCK,
    ) -> None:
        if instrument not in (None, "unpruned", "pruned"):
            raise ValueError(f"bad instrument mode {instrument!r}")
        self.profile = profile
        self.n_insts = n_insts
        self.seed = seed
        self.instrument = instrument
        self.block = block

        base = _app_base(profile.name)
        self._base = base
        self._words = {c: s >> 3 for c, s in CLASS_SIZES.items()}
        self._class_base = {c: base + off for c, off in _CLASS_OFFSETS.items()}

        self.rng = np.random.default_rng(seed * 1_000_003 + 17)
        self.emitted = 0
        self.sweep = {c: 0 for c in CLASS_SIZES}
        self.stream_ptr = self._class_base["stream"]
        self.burst_left = 0
        self.burst_ptr = 0

        self._instrumenting = instrument is not None
        if self._instrumenting:
            self.irng = np.random.default_rng(seed * 7_000_037 + 23)
            self._ckpts_per_region = (
                profile.ckpts_pruned
                if instrument == "pruned"
                else profile.ckpts_unpruned
            )
            self._ckpt_base = base + _CKPT_OFFSET
            self._region_p = 1.0 / profile.region_len
            self.region_left = int(self.irng.geometric(self._region_p))
            self.ckpt_accum = 0.0
            self.slot = 0

    def __iter__(self):
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield chunk

    def next_chunk(self) -> Optional[PackedTrace]:
        """Generate and return the next block, or ``None`` at the end."""
        profile = self.profile
        remaining = self.n_insts - self.emitted
        if remaining <= 0:
            return None
        block_n = min(self.block, remaining)
        rng = self.rng

        # Pre-drawn arrays, converted to Python lists once: per-index
        # access in the hot loop then never touches numpy scalars (the
        # float values are bit-identical either way).  The draw order
        # per block is the contract the stream's determinism rests on.
        op_r = rng.random(block_n).tolist()
        load_cut = profile.load_frac
        store_cut = profile.load_frac + profile.store_frac
        atomic_p = profile.atomics_per_kinst / 1000.0
        atomic_r = rng.random(block_n).tolist() if atomic_p > 0 else None
        lnames, lchoice = _class_sampler(profile.load_classes, rng, block_n)
        snames, schoice = _class_sampler(profile.store_classes, rng, block_n)
        lchoice = lchoice.tolist()
        schoice = schoice.tolist()
        off_r = rng.random(block_n).tolist()
        jump_r = rng.random(block_n).tolist()
        burst_r = rng.random(block_n).tolist() if profile.store_burst > 0 else None
        burst_len_r = rng.geometric(
            1.0 / _BURST_MEAN_WORDS, size=max(1, block_n // 4)
        ).tolist()

        sweep = self.sweep
        words = self._words
        class_base = self._class_base
        jump_frac = profile.jump_frac
        store_burst = profile.store_burst
        hot_base = class_base["hot"]
        hot_words = words["hot"]

        stream_ptr = self.stream_ptr
        burst_left = self.burst_left
        burst_ptr = self.burst_ptr
        burst_idx = 0
        n_burst_lens = len(burst_len_r)

        # Instrumentation state: an independent RNG stream, modelling
        # the compiled-with-cWSP binary.  Fused into the generation
        # loop -- each boundary decision happens just before its core
        # event is appended, exactly where the old rewrite pass
        # inserted it.
        instrumenting = self._instrumenting
        if instrumenting:
            geometric = self.irng.geometric
            ckpts_per_region = self._ckpts_per_region
            ckpt_base = self._ckpt_base
            region_p = self._region_p
            region_left = self.region_left
            ckpt_accum = self.ckpt_accum
            slot = self.slot

        codes: List[str] = []
        addrs: List[int] = []
        cappend = codes.append
        aappend = addrs.append

        for i in range(block_n):
            if atomic_r is not None and atomic_r[i] < atomic_p:
                code = "x"
                a = hot_base + (int(off_r[i] * hot_words) << 3)
            else:
                r = op_r[i]
                if r < load_cut:
                    code = "l"
                    cname = lnames[lchoice[i]]
                    if cname == "stream":
                        stream_ptr += 8
                        a = stream_ptr
                    elif jump_r[i] < jump_frac:
                        off = int(off_r[i] * words[cname])
                        sweep[cname] = off
                        a = class_base[cname] + (off << 3)
                    else:
                        off = sweep[cname] = (sweep[cname] + 1) % words[cname]
                        a = class_base[cname] + (off << 3)
                elif r < store_cut:
                    code = "s"
                    if burst_left > 0:
                        burst_left -= 1
                        burst_ptr += 8
                        a = burst_ptr
                    elif burst_r is not None and burst_r[i] < store_burst:
                        burst_left = burst_len_r[burst_idx % n_burst_lens]
                        burst_idx += 1
                        stream_ptr += 8
                        burst_ptr = stream_ptr
                        stream_ptr += burst_left << 3
                        a = burst_ptr
                    else:
                        cname = snames[schoice[i]]
                        if cname == "stream":
                            stream_ptr += 8
                            a = stream_ptr
                        elif jump_r[i] < jump_frac:
                            off = int(off_r[i] * words[cname])
                            sweep[cname] = off
                            a = class_base[cname] + (off << 3)
                        else:
                            off = sweep[cname] = (sweep[cname] + 1) % words[cname]
                            a = class_base[cname] + (off << 3)
                else:
                    code = "a"
                    a = 0
            if instrumenting:
                if region_left <= 0 or code == "x":
                    # Synchronization points are region boundaries too.
                    cappend("b")
                    aappend(0)
                    ckpt_accum += ckpts_per_region
                    while ckpt_accum >= 1.0:
                        ckpt_accum -= 1.0
                        slot = (slot + 1) % _CKPT_SLOTS
                        cappend("c")
                        aappend(ckpt_base + slot * 8)
                    region_left = int(geometric(region_p))
                region_left -= 1
            cappend(code)
            aappend(a)

        self.stream_ptr = stream_ptr
        self.burst_left = burst_left
        self.burst_ptr = burst_ptr
        if instrumenting:
            self.region_left = region_left
            self.ckpt_accum = ckpt_accum
            self.slot = slot
        self.emitted += block_n
        return PackedTrace("".join(codes), addrs)

    # -- checkpoint protocol -------------------------------------------
    def spec(self) -> Dict[str, object]:
        """The construction parameters (checkpoint trace descriptor)."""
        return {
            "app": self.profile.name,
            "n_insts": self.n_insts,
            "seed": self.seed,
            "instrument": self.instrument,
            "block": self.block,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SyntheticStream":
        return cls(
            PROFILES[spec["app"]],
            n_insts=spec["n_insts"],
            seed=spec["seed"],
            instrument=spec["instrument"],
            block=spec.get("block", _GEN_BLOCK),
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable generator state, valid at block boundaries
        (between ``next_chunk`` calls).  Includes the exact PCG64
        bit-generator state dicts, so a restored stream draws the same
        randomness the original would have."""
        state: Dict[str, object] = {
            "emitted": self.emitted,
            "sweep": dict(self.sweep),
            "stream_ptr": self.stream_ptr,
            "burst_left": self.burst_left,
            "burst_ptr": self.burst_ptr,
            "rng": self.rng.bit_generator.state,
        }
        if self._instrumenting:
            state["irng"] = self.irng.bit_generator.state
            state["region_left"] = self.region_left
            state["ckpt_accum"] = self.ckpt_accum
            state["slot"] = self.slot
        return state

    def restore(self, state: Dict[str, object]) -> None:
        self.emitted = state["emitted"]
        self.sweep = {c: state["sweep"][c] for c in CLASS_SIZES}
        self.stream_ptr = state["stream_ptr"]
        self.burst_left = state["burst_left"]
        self.burst_ptr = state["burst_ptr"]
        self.rng.bit_generator.state = state["rng"]
        if self._instrumenting:
            self.irng.bit_generator.state = state["irng"]
            self.region_left = state["region_left"]
            self.ckpt_accum = state["ckpt_accum"]
            self.slot = state["slot"]


def generate_trace(
    profile: AppProfile,
    n_insts: int = 100_000,
    seed: int = 0,
    instrument: Optional[str] = None,
    packed: bool = False,
) -> Union[EventView, PackedTrace]:
    """Build the committed-event stream for one application sample.

    ``instrument`` is ``None`` (the original binary), ``"unpruned"``
    (region boundaries + pre-pruning checkpoint density), or
    ``"pruned"`` (the full cWSP compiler, Figure 15's last stage).

    ``packed=True`` returns a :class:`~repro.arch.trace.PackedTrace`
    (the simulator's batched fast path); the default returns an
    :class:`~repro.arch.trace.EventView` that iterates, indexes, and
    compares as the legacy per-event tuple list without materializing
    it.  Both wrap the identical stream: generation runs through
    :class:`SyntheticStream` in fixed internal blocks, and every RNG
    draw happens in the same order, on the same generator state, as
    the original single-pass pipeline for every stream that fits one
    block.
    """
    stream = SyntheticStream(profile, n_insts, seed, instrument)
    chunks = list(stream)
    trace = PackedTrace.concat(chunks) if chunks else PackedTrace("", [])
    return trace if packed else trace.view()
