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

Computation.  A block is built with NumPy array operations rather than
one Python iteration per instruction: op kinds are element-wise
compares of the drawn arrays, each sweep class is a segmented scan
over its accesses, the stream pointer is one ``cumsum``, and Python
loops run only over burst starts and region boundaries.  The draws,
their order, and every carried value are those of the per-instruction
walk kept in ``tests/trace_oracle.py``, which is the specification:
the emitted stream and the carried state are bit-identical to it.
NumPy is imported inside the functions that build arrays, so a
process that imports this module but builds no trace -- a fully
cached harness run -- never loads it (DESIGN.md section 7e).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.arch.trace import EventView, PackedTrace
from repro.workloads.profiles import AppProfile, CLASS_SIZES, PROFILES

if TYPE_CHECKING:
    import numpy as np

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

#: Sweep classes by id; ``_STREAM_ID`` marks stream-class accesses and
#: ``_BURST_ID`` burst starts, the events that advance ``stream_ptr``.
_SWEEP_CLASSES = tuple(CLASS_SIZES)
_STREAM_ID = len(_SWEEP_CLASSES)
_BURST_ID = _STREAM_ID + 1
_A, _B, _C, _L, _S, _X = b"abclsx"


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


def _class_sampler(weights, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw the class ids of *n* accesses with probabilities *weights*.

    The sampled index is bit-identical to ``rng.choice(len(weights),
    size=n, p=probs)``, which normalises ``probs.cumsum()`` into a cdf,
    draws one ``random()`` per sample and returns the count of cdf
    entries at or below it (``searchsorted(side="right")``).  One
    compare per class counts the same thing several times faster than
    a binary search per sample.
    """
    import numpy as np
    names = [w[0] for w in weights]
    ids = np.array(
        [_STREAM_ID if c == "stream" else _SWEEP_CLASSES.index(c) for c in names],
        dtype=np.int8,
    )
    probs = np.array([w[1] for w in weights])
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    choice = np.zeros(n, dtype=np.int8)
    for edge in cdf[:-1]:  # u < 1.0 == cdf[-1]
        choice += u >= edge
    return ids[choice]


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
        if block < 1:
            raise ValueError(f"bad generation block {block!r}: must be >= 1")
        self.profile = profile
        self.n_insts = n_insts
        self.seed = seed
        self.instrument = instrument
        self.block = block

        base = _app_base(profile.name)
        self._base = base
        self._words = {c: s >> 3 for c, s in CLASS_SIZES.items()}
        self._class_base = {c: base + off for c, off in _CLASS_OFFSETS.items()}

        import numpy as np
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
        import numpy as np
        profile = self.profile
        remaining = self.n_insts - self.emitted
        if remaining <= 0:
            return None
        n = min(self.block, remaining)
        rng = self.rng

        # The draw order per block is the contract the stream's
        # determinism rests on.
        op_r = rng.random(n)
        atomic_p = profile.atomics_per_kinst / 1000.0
        atomic_r = rng.random(n) if atomic_p > 0 else None
        load_cls = _class_sampler(profile.load_classes, rng, n)
        store_cls = _class_sampler(profile.store_classes, rng, n)
        off_r = rng.random(n)
        jump_r = rng.random(n)
        burst_r = rng.random(n) if profile.store_burst > 0 else None
        burst_len_r = rng.geometric(1.0 / _BURST_MEAN_WORDS, size=max(1, n // 4))

        # Op kinds: element-wise, atomics taking precedence.
        is_load = op_r < profile.load_frac
        is_store = ~is_load & (op_r < profile.load_frac + profile.store_frac)
        codes = np.full(n, _A, dtype=np.uint8)
        addrs = np.zeros(n, dtype=np.int64)
        if atomic_r is not None:
            is_atomic = atomic_r < atomic_p
            is_load &= ~is_atomic
            is_store &= ~is_atomic
            atomic_idx = np.flatnonzero(is_atomic)
            codes[atomic_idx] = _X
            addrs[atomic_idx] = self._class_base["hot"] + (
                (off_r[atomic_idx] * self._words["hot"]).astype(np.int64) << 3
            )
        else:
            atomic_idx = np.empty(0, dtype=np.int64)
        load_idx = np.flatnonzero(is_load)
        store_idx = np.flatnonzero(is_store)
        codes[load_idx] = _L
        codes[store_idx] = _S

        # Store bursts, in store order: the carried burst continues
        # over the first stores, then each candidate store outside a
        # burst starts one of the next pre-drawn length, covering the
        # stores after it.  Only burst starts are iterated.
        n_stores = len(store_idx)
        burst_left = self.burst_left
        starts: List[int] = []
        lens: List[int] = []
        pos = burst_left
        if burst_r is not None:
            cand = np.flatnonzero(burst_r[store_idx] < profile.store_burst).tolist()
            if cand:
                n_lens = len(burst_len_r)
                # At most one start per candidate.
                blens = burst_len_r[: len(cand)].tolist()
                k = bisect_left(cand, pos)
                while k < len(cand):
                    s = cand[k]
                    length = blens[len(starts) % n_lens]
                    starts.append(s)
                    lens.append(length)
                    pos = s + 1 + length
                    k = bisect_left(cand, pos, k + 1)
        self.burst_left = max(pos - n_stores, 0)
        in_burst = np.zeros(n_stores + 1, dtype=np.int64)
        in_burst[0] = 1
        in_burst[min(burst_left, n_stores)] -= 1
        if starts:
            start_s = np.array(starts, dtype=np.int64)
            len_s = np.array(lens, dtype=np.int64)
            in_burst[start_s] += 1
            in_burst[np.minimum(start_s + 1 + len_s, n_stores)] -= 1
        burst_s = np.cumsum(in_burst[:n_stores]) > 0  # starts included

        # Class accesses: loads, and stores outside bursts.
        cls = np.full(n, -1, dtype=np.int8)
        cls[load_idx] = load_cls[load_idx]
        reg_idx = store_idx[~burst_s]
        cls[reg_idx] = store_cls[reg_idx]
        if starts:
            start_idx = store_idx[start_s]
            cls[start_idx] = _BURST_ID

        # Stream pointer: one cumsum over the events that advance it,
        # by 8 per stream access and by 8 + (L << 3) per burst start
        # (which itself takes the first of its L + 1 words).
        moves = np.flatnonzero(cls >= _STREAM_ID)
        if len(moves):
            incr = np.full(len(moves), 8, dtype=np.int64)
            if starts:
                incr[cls[moves] == _BURST_ID] += len_s << 3
            ptr = self.stream_ptr + np.cumsum(incr)
            addrs[moves] = ptr
            if starts:
                addrs[start_idx] -= len_s << 3
            self.stream_ptr = int(ptr[-1])

        # Burst continuations: each walks on from its burst's start
        # (or from the carried ``burst_ptr`` before the first start).
        burst_idx = store_idx[burst_s]
        if len(burst_idx):
            anchor = np.full(n_stores, -1, dtype=np.int64)
            if starts:
                anchor[start_s] = start_s
            anchor = np.maximum.accumulate(anchor)[burst_s]
            steps = np.flatnonzero(burst_s) - anchor
            anchor_addr = np.where(
                anchor >= 0, addrs[store_idx[anchor]], self.burst_ptr
            )
            addrs[burst_idx] = anchor_addr + (steps << 3)
            self.burst_ptr = int(addrs[burst_idx[-1]])

        # Sweep pointers: a segmented scan per class, restarted at
        # each jump (whose offset is stored unreduced, as the
        # sequential walk stores it).
        jump_frac = profile.jump_frac
        for cid, cname in enumerate(_SWEEP_CLASSES):
            idx = np.flatnonzero(cls == cid)
            if not len(idx):
                continue
            words = self._words[cname]
            jumps = jump_r[idx] < jump_frac
            jump_off = (off_r[idx] * words).astype(np.int64)
            ar = np.arange(len(idx))
            last = np.maximum.accumulate(np.where(jumps, ar, -1))
            base = np.where(last >= 0, jump_off[last], self.sweep[cname])
            off = np.where(jumps, jump_off, (base + ar - last) % words)
            addrs[idx] = self._class_base[cname] + (off << 3)
            self.sweep[cname] = int(off[-1])

        self.emitted += n
        if self._instrumenting:
            codes, addrs = self._instrument(codes, addrs, atomic_idx)
        return PackedTrace(codes.tobytes().decode("ascii"), addrs.tolist())

    def _instrument(
        self, codes: np.ndarray, addrs: np.ndarray, atomic_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Insert region boundaries and checkpoint stores into a block.

        Loops over boundaries only: the next one falls at ``min(pos +
        region_left, next atomic)`` (synchronization points are region
        boundaries too).  Each boundary draws one region length, and
        the ``ckpt_accum`` float adds keep their per-boundary order, so
        the carried state is the per-instruction walk's exactly.
        """
        import numpy as np
        n = len(codes)
        atomics = atomic_idx.tolist()
        atomics.append(n)  # sentinel
        # Region lengths are drawn in bulk (a bulk geometric draw equals
        # the same count of scalar draws, generator state included),
        # then the generator is rewound and advanced by the count used.
        irng = self.irng
        region_p = self._region_p
        state = irng.bit_generator.state
        batch = (n + (n >> 3)) // max(1, int(self.profile.region_len))
        batch += len(atomics) + 16
        draws = irng.geometric(region_p, size=batch).tolist()
        n_draws = batch
        next_atomic = atomics[0]
        ai = 0
        bounds: List[int] = []
        nb = 0
        nxt = self.region_left  # next boundary unless an atomic comes first
        while True:
            b = nxt if nxt < next_atomic else next_atomic
            if b >= n:
                break
            if b == next_atomic:
                ai += 1
                next_atomic = atomics[ai]
            bounds.append(b)
            if nb == n_draws:
                draws.extend(irng.geometric(region_p, size=batch).tolist())
                n_draws += batch
            nxt = b + draws[nb]
            nb += 1
        self.region_left = nxt - n
        if nb != n_draws:
            irng.bit_generator.state = state
            irng.geometric(region_p, size=nb)

        cpr = self._ckpts_per_region
        accum = self.ckpt_accum
        n_ckpts: List[int] = []
        for _ in range(nb):
            accum += cpr
            c = 0
            while accum >= 1.0:
                accum -= 1.0
                c += 1
            n_ckpts.append(c)
        self.ckpt_accum = accum
        if not bounds:
            return codes, addrs

        # Scatter: each boundary inserts its ``b`` and then its
        # checkpoint stores before its core event.
        inserts = np.array(n_ckpts, dtype=np.int64) + 1
        at_b = np.cumsum(inserts) - inserts
        n_ins = int(at_b[-1] + inserts[-1])
        is_b = np.zeros(n_ins, dtype=bool)
        is_b[at_b] = True
        slots = (self.slot + 1 + np.arange(n_ins - nb)) % _CKPT_SLOTS
        self.slot = (self.slot + n_ins - nb) % _CKPT_SLOTS
        ins_addrs = np.zeros(n_ins, dtype=np.int64)
        ins_addrs[~is_b] = self._ckpt_base + (slots << 3)
        at = np.repeat(np.array(bounds, dtype=np.int64), inserts)
        codes = np.insert(codes, at, np.where(is_b, _B, _C))
        addrs = np.insert(addrs, at, ins_addrs)
        return codes, addrs

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
