"""Per-application synthetic trace profiles for all 37 paper apps.

Each profile describes the memory behaviour that drives the paper's
figures.  Working-set *classes* are sized against the scaled hierarchy
(``skylake_machine(scaled=True)``; L1 16KB / L2 128KB / DRAM-LLC 2MB)
by ``CLASS_SIZES``:

========  ==========  =======================================
class     size        resident in
========  ==========  =======================================
hot       8 KB        L1
warm      40 KB       L2 (misses 16KB L1)
mid       160 KB      DRAM LLC (misses 128KB L2)
big       640 KB      DRAM LLC only
huge      6 MB        overflows the 2MB DRAM LLC -> NVM reads
stream    unbounded   sequential, compulsory misses -> NVM
========  ==========  =======================================

Region lengths reproduce Figure 19 (38.15 instructions on average;
SPLASH3 much shorter), checkpoint densities reproduce the pruning
effect of Figure 15, and SPLASH3's sequential-write burstiness
reproduces its PB/WPQ pressure (Section IX-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

ClassWeights = Tuple[Tuple[str, float], ...]

CLASS_SIZES: Dict[str, int] = {
    "hot": 8 << 10,
    "warm": 40 << 10,
    "mid": 160 << 10,
    "big": 640 << 10,
    "huge": 6 << 20,
}


@dataclass(frozen=True)
class AppProfile:
    """Synthetic trace parameters for one application."""

    name: str
    suite: str
    load_frac: float
    store_frac: float
    load_classes: ClassWeights
    store_classes: ClassWeights
    #: Mean dynamic instructions per idempotent region (Figure 19).
    region_len: float
    #: Checkpoint stores per region before/after Penny pruning.
    ckpts_unpruned: float = 2.5
    ckpts_pruned: float = 1.2
    #: Probability that a store starts a sequential write burst.
    store_burst: float = 0.0
    #: Atomic RMWs per 1000 instructions (synchronization rate).
    atomics_per_kinst: float = 0.0
    #: Probability an access jumps to a random word of its class
    #: instead of continuing the sequential sweep (spatial locality
    #: knob: sweeps fetch a new line every 8 accesses; jumps fetch one
    #: nearly every access).
    jump_frac: float = 0.1

    @property
    def alu_frac(self) -> float:
        return 1.0 - self.load_frac - self.store_frac


def _w(**weights: float) -> ClassWeights:
    total = sum(weights.values())
    return tuple((k, v / total) for k, v in weights.items())


_COMPUTE_L = _w(hot=82, warm=12, mid=4, big=2)
_MODERATE_L = _w(hot=62, warm=18, mid=12, big=7, huge=1)
_MEMHEAVY_L = _w(hot=40, warm=18, mid=18, big=18, huge=5, stream=1)
_STREAM_L = _w(hot=28, warm=10, mid=18, big=30, huge=10, stream=4)
_SPLASH_L = _w(hot=74, warm=16, mid=6, big=4)
_WHISPER_L = _w(hot=45, warm=15, mid=16, big=18, huge=6)

_COMPUTE_S = _w(hot=80, warm=14, mid=6)
_MODERATE_S = _w(hot=62, warm=20, mid=12, big=6)
_STREAM_S = _w(hot=25, warm=10, mid=20, big=35, huge=6, stream=4)
_SPLASH_S = _w(hot=45, warm=15, mid=10, stream=30)
_WHISPER_S = _w(hot=40, warm=13, mid=17, big=22, huge=8)


def _app(name, suite, lf, sf, lc, sc, rlen, cu=2.5, cp=1.2, burst=0.0, atomics=0.0, jump=0.1):
    return AppProfile(
        name=name,
        suite=suite,
        load_frac=lf,
        store_frac=sf,
        load_classes=lc,
        store_classes=sc,
        region_len=rlen,
        ckpts_unpruned=cu,
        ckpts_pruned=cp,
        store_burst=burst,
        atomics_per_kinst=atomics,
        jump_frac=jump,
    )


_ALL: List[AppProfile] = [
    # ----- SPEC CPU2006 ------------------------------------------------
    _app("astar", "CPU2006", 0.30, 0.056, _MEMHEAVY_L, _MODERATE_S, 46),
    _app("bzip2", "CPU2006", 0.28, 0.084, _MODERATE_L, _MODERATE_S, 52),
    _app("gobmk", "CPU2006", 0.25, 0.056, _COMPUTE_L, _COMPUTE_S, 56),
    _app("h264ref", "CPU2006", 0.30, 0.084, _MODERATE_L, _MODERATE_S, 48),
    _app("lbm", "CPU2006", 0.25, 0.126, _STREAM_L, _STREAM_S, 42, burst=0.12, jump=0.25),
    _app("libquantum", "CPU2006", 0.30, 0.07, _STREAM_L, _MODERATE_S, 40),
    _app("milc", "CPU2006", 0.32, 0.098, _MEMHEAVY_L, _MODERATE_S, 40),
    _app("namd", "CPU2006", 0.30, 0.07, _COMPUTE_L, _COMPUTE_S, 62),
    _app("sjeng", "CPU2006", 0.25, 0.056, _COMPUTE_L, _COMPUTE_S, 52),
    _app("soplex", "CPU2006", 0.30, 0.07, _MODERATE_L, _MODERATE_S, 44),
    # ----- SPEC CPU2017 ------------------------------------------------
    _app("dsjeng", "CPU2017", 0.25, 0.056, _COMPUTE_L, _COMPUTE_S, 52),
    _app("imagick", "CPU2017", 0.28, 0.056, _COMPUTE_L, _COMPUTE_S, 58),
    _app("lbm17", "CPU2017", 0.25, 0.126, _STREAM_L, _STREAM_S, 42, burst=0.12, jump=0.25),
    _app("leela", "CPU2017", 0.26, 0.056, _COMPUTE_L, _COMPUTE_S, 54),
    _app("nab", "CPU2017", 0.30, 0.07, _MODERATE_L, _MODERATE_S, 48),
    _app("namd17", "CPU2017", 0.30, 0.07, _COMPUTE_L, _COMPUTE_S, 62),
    _app("xz", "CPU2017", 0.28, 0.07, _MODERATE_L, _MODERATE_S, 46),
    # ----- DOE Mini-apps -----------------------------------------------
    _app("lulesh", "Mini-apps", 0.30, 0.105, _MEMHEAVY_L, _STREAM_S, 30, cu=3.5, cp=1.0, burst=0.08),
    _app("xsbench", "Mini-apps", 0.35, 0.035, _w(hot=30, warm=15, mid=18, big=22, huge=15), _MODERATE_S, 32, jump=0.5),
    # ----- SPLASH3 (short regions, sequential writes) ------------------
    _app("cholesky", "SPLASH3", 0.28, 0.084, _SPLASH_L, _SPLASH_S, 20, burst=0.18, atomics=0.8),
    _app("fft", "SPLASH3", 0.28, 0.091, _SPLASH_L, _SPLASH_S, 18, burst=0.20, atomics=0.7),
    _app("lu-cg", "SPLASH3", 0.28, 0.105, _SPLASH_L, _SPLASH_S, 14, burst=0.30, atomics=0.7),
    _app("lu-ncg", "SPLASH3", 0.28, 0.091, _SPLASH_L, _SPLASH_S, 17, burst=0.20, atomics=0.7),
    _app("ocg", "SPLASH3", 0.28, 0.091, _SPLASH_L, _SPLASH_S, 18, burst=0.20, atomics=0.8),
    _app("oncg", "SPLASH3", 0.28, 0.084, _SPLASH_L, _SPLASH_S, 19, burst=0.18, atomics=0.8),
    _app("radix", "SPLASH3", 0.26, 0.119, _SPLASH_L, _SPLASH_S, 13, burst=0.35, atomics=0.5),
    _app("raytrace", "SPLASH3", 0.30, 0.07, _SPLASH_L, _MODERATE_S, 24, atomics=0.9),
    _app("water-ns", "SPLASH3", 0.28, 0.084, _SPLASH_L, _SPLASH_S, 19, cu=3.5, cp=1.0, burst=0.16, atomics=0.8),
    _app("water-sp", "SPLASH3", 0.28, 0.084, _SPLASH_L, _SPLASH_S, 20, cu=3.0, cp=1.1, burst=0.15, atomics=0.8),
    # ----- WHISPER (persistent-memory workloads) -----------------------
    _app("pc", "WHISPER", 0.28, 0.14, _WHISPER_L, _WHISPER_S, 28, atomics=0.5),
    _app("rb", "WHISPER", 0.30, 0.126, _WHISPER_L, _WHISPER_S, 26, atomics=0.5),
    _app("sps", "WHISPER", 0.26, 0.168, _WHISPER_L, _WHISPER_S, 24, atomics=0.4),
    _app("tatp", "WHISPER", 0.30, 0.112, _WHISPER_L, _WHISPER_S, 30, atomics=0.6),
    _app("tpcc", "WHISPER", 0.30, 0.126, _WHISPER_L, _WHISPER_S, 28, atomics=0.6),
    # ----- STAMP (transactional) ---------------------------------------
    _app("kmeans", "STAMP", 0.30, 0.084, _MODERATE_L, _MODERATE_S, 36, atomics=1.2),
    _app("ssca2", "STAMP", 0.32, 0.084, _MEMHEAVY_L, _MODERATE_S, 34, atomics=1.2),
    _app("vacation", "STAMP", 0.30, 0.084, _MODERATE_L, _MODERATE_S, 38, atomics=1.0),
]

PROFILES: Dict[str, AppProfile] = {p.name: p for p in _ALL}

SUITES: Tuple[str, ...] = (
    "CPU2006",
    "CPU2017",
    "Mini-apps",
    "SPLASH3",
    "WHISPER",
    "STAMP",
)

ALL_APPS: Tuple[str, ...] = tuple(p.name for p in _ALL)

#: The memory-intensive subset used by Figures 1, 17, and 18.
MEMORY_INTENSIVE: Tuple[str, ...] = (
    "astar",
    "lbm",
    "libquantum",
    "milc",
    "lulesh",
    "xsbench",
    "pc",
    "rb",
    "sps",
    "tatp",
    "tpcc",
)


def apps_in_suite(suite: str) -> List[str]:
    return [p.name for p in _ALL if p.suite == suite]
