"""Per-instruction reference generator for :class:`SyntheticStream`.

``OracleStream.next_chunk`` is the original one-Python-iteration-per-
instruction block generator, kept verbatim as the specification the
vectorised ``SyntheticStream.next_chunk`` must reproduce byte for byte:
the same codes, the same addresses, and the same carried state
(``snapshot()``, both PCG64 states included) after every block.  Its
class sampler is the original ``rng.choice`` call.  It inherits
construction and the checkpoint protocol unchanged, so the two streams
differ only in how a block is computed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch.trace import PackedTrace
from repro.workloads.synthetic import _BURST_MEAN_WORDS, _CKPT_SLOTS, SyntheticStream


def _class_sampler(weights, rng: np.random.Generator, n: int):
    names = [w[0] for w in weights]
    probs = np.array([w[1] for w in weights])
    probs = probs / probs.sum()
    return names, rng.choice(len(names), size=n, p=probs)


class OracleStream(SyntheticStream):
    """:class:`SyntheticStream` with the per-instruction block loop."""

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
