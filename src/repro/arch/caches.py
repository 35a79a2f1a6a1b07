"""Cache models: set-associative SRAM levels, the direct-mapped DRAM
cache, and the hierarchy walk that yields a load/store's latency."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Dict, Optional, Set, Tuple

from repro.arch.config import CacheConfig, DRAMCacheConfig


class SetAssocCache:
    """Set-associative cache with LRU replacement and dirty bits.

    Tag state lives in dicts keyed by set index, so a 16MB cache costs
    memory proportional to the lines actually touched.  Each set keeps
    its lines in recency order: a hit moves its line to the end, and
    the victim is the first line.
    """

    __slots__ = ("name", "ways", "line_bits", "n_sets", "hit_latency", "sets", "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.name = config.name
        self.ways = config.ways
        self.line_bits = config.line_bytes.bit_length() - 1
        self.n_sets = max(1, config.size_bytes // (config.line_bytes * config.ways))
        self.hit_latency = config.hit_latency
        #: set index -> {line address: dirty}, least recently used first
        self.sets: Dict[int, Dict[int, bool]] = {}
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int, is_write: bool) -> Tuple[bool, Optional[Tuple[int, bool]]]:
        """Access a line; returns (hit, evicted) where evicted is
        (line_addr, dirty) of a victim line or None."""
        index = line_addr % self.n_sets
        ways = self.sets.get(index)
        if ways is None:
            ways = self.sets[index] = {}
        dirty = ways.pop(line_addr, None)
        if dirty is not None:
            self.hits += 1
            ways[line_addr] = dirty or is_write
            return True, None
        self.misses += 1
        evicted = None
        if len(ways) >= self.ways:
            victim = next(iter(ways))
            evicted = (victim, ways.pop(victim))
        ways[line_addr] = is_write
        return False, evicted

    def prime(self, first: int, end: int) -> None:
        """Insert lines ``[first, end)`` clean, in order, into the sets
        that still have a free way.  A resident line in such a set turns
        clean and keeps its place."""
        sets, n_sets, ways_cap = self.sets, self.n_sets, self.ways
        for line in range(first, end):
            ways = sets.setdefault(line % n_sets, {})
            if len(ways) < ways_cap:
                ways[line] = False

    def snapshot(self) -> dict:
        """JSON-serializable tag state.

        Each non-empty set, by index, lists its ``[line, dirty]`` pairs
        in recency order, least recent first: the order is observable
        state (it picks the victims), so it must survive the round trip.
        """
        return {
            "sets": [
                [index, [[line, dirty] for line, dirty in ways.items()]]
                for index, ways in sorted(self.sets.items())
                if ways
            ],
            "hits": self.hits,
            "misses": self.misses,
        }


class DirectMappedCache:
    """Direct-mapped DRAM cache (Intel memory-mode style).

    Primed lines are sorted, disjoint ``(lo, hi, tag)`` runs of indices
    (:meth:`prime`), so priming costs O(ranges), not O(lines).  ``tags``
    holds the indices written since; a lookup that finds no entry there
    bisects the runs and stores what it found, once per index.
    """

    __slots__ = ("n_lines", "line_bits", "hit_latency", "tags", "dirty", "hits",
                 "misses", "_runs", "_order")

    def __init__(self, config: DRAMCacheConfig) -> None:
        self.n_lines = max(1, config.size_bytes // config.line_bytes)
        self.line_bits = config.line_bytes.bit_length() - 1
        self.hit_latency = config.hit_latency
        #: index -> tag written or looked up since priming; wins over the runs
        self.tags: Dict[int, int] = {}
        #: indices whose resident line is dirty
        self.dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        #: the primed (lo, hi, tag) runs, sorted and disjoint
        self._runs: tuple = ()
        #: first-fill order up to the last prime, as index tuples and ranges
        self._order: tuple = ()

    def access(self, line_addr: int, is_write: bool) -> Tuple[bool, Optional[Tuple[int, bool]]]:
        index = line_addr % self.n_lines
        tag = line_addr // self.n_lines
        tags = self.tags
        old = tags.get(index)
        if old is None:  # a None stored here is overwritten by the miss
            old = tags[index] = _run_tag(self._runs, index)
        if old == tag:
            self.hits += 1
            if is_write:
                self.dirty.add(index)
            return True, None
        self.misses += 1
        evicted = None
        if old is not None:
            evicted = (old * self.n_lines + index, index in self.dirty)
        tags[index] = tag
        if is_write:
            self.dirty.add(index)
        else:
            self.dirty.discard(index)
        return False, evicted

    def prime(self, spans) -> None:
        """Insert the lines of each span ``[first, end)`` clean, in
        order, in closed form.

        Equivalent to writing each line's tag in turn.  Within a span an
        index's *first* write lies among its first ``n_lines`` lines,
        which fixes where a new index enters the first-fill order; its
        *last* write lies among the last ``n_lines`` lines, which fixes
        its tag.  Both windows cover the same indices, and the last one
        spans at most two tag blocks: indices at or above its start
        index (``pivot``) get its starting tag, those below get the
        next.  So a span is at most four constant-tag runs over the
        first window's indices, in rotation order, and a later run wins
        where runs overlap.
        """
        n = self.n_lines
        runs = list(self._runs)
        pieces: list = []
        for first, end in spans:
            count = min(end - first, n)
            if count <= 0:
                continue
            start = first % n
            last_first = end - count
            pivot = last_first % n
            low_tag = last_first // n
            # The first window's indices in rotation order: [start, n),
            # then the wrap-around [0, ...) when it crosses index n.
            for lo, hi in ((start, min(start + count, n)), (0, start + count - n)):
                if lo < hi:
                    pieces.append(range(lo, hi))
                    mid = min(max(pivot, lo), hi)
                    _paint(runs, lo, mid, low_tag + 1)
                    _paint(runs, mid, hi, low_tag)
        self._runs = tuple(runs)
        # Indices written before keep their place in the order; those
        # the spans cover take the runs' tags, clean.  (Priming precedes
        # every access in the simulator, so both loops are empty there.)
        tags = self.tags
        self._order += (tuple(tags), *pieces)
        for i in [i for i in tags if any(i in piece for piece in pieces)]:
            del tags[i]
        self.dirty = {i for i in self.dirty if not any(i in piece for piece in pieces)}

    def snapshot(self) -> dict:
        tags, runs, dirty = self.tags, self._runs, self.dirty
        # A per-line replay first fills indices in the order of their
        # first occurrence in the order pieces, then in ``tags``.
        lines = [[i, tags[i] if i in tags else _run_tag(runs, i), i in dirty]
                 for i in dict.fromkeys(chain(*self._order, tags))]
        return {"lines": lines, "hits": self.hits, "misses": self.misses}


def _run_tag(runs, index: int) -> Optional[int]:
    """The tag of the run in sorted, disjoint *runs* covering *index*."""
    i = bisect_left(runs, (index + 1,)) - 1  # the last run starting <= index
    if i >= 0 and index < runs[i][1]:
        return runs[i][2]
    return None


def _paint(runs: list, lo: int, hi: int, tag: int) -> None:
    """Write run ``(lo, hi, tag)`` over sorted, disjoint *runs* in place,
    cutting away the parts of older runs it overlaps."""
    if lo >= hi:
        return
    i = bisect_right(runs, lo, key=itemgetter(1))  # the first run ending after lo
    j = i
    while j < len(runs) and runs[j][0] < hi:
        j += 1
    head = [(runs[i][0], lo, runs[i][2])] if i < j and runs[i][0] < lo else []
    tail = [(hi, *runs[j - 1][1:])] if i < j and runs[j - 1][1] > hi else []
    runs[i:j] = head + [(lo, hi, tag)] + tail


class CacheHierarchy:
    """The SRAM levels plus optional DRAM cache, walked on each access.

    ``access`` returns ``(latency_cycles, reached_nvm, l1_evicted,
    llc_evicted)``: the cumulative lookup latency up to the hit level
    (NVM read latency *not* included -- the caller adds it with MC/NUMA
    effects), whether the access missed everything, the dirty line
    evicted from L1 (it goes to the write buffer), and the dirty line
    evicted from the last-level cache (it writes back to NVM unless the
    scheme drops it).
    """

    def __init__(self, configs, dram_config: Optional[DRAMCacheConfig]) -> None:
        self.levels = [SetAssocCache(c) for c in configs]
        self.dram = DirectMappedCache(dram_config) if dram_config is not None else None
        self.line_bits = self.levels[0].line_bits

    def access(self, addr: int, is_write: bool):
        # L1 is unrolled: the common case is a hit in the first level,
        # which returns before any lower-level state is touched.  The
        # simulator's fused loop probes L1 inline and calls miss()
        # directly, so the split below is the single walk definition.
        line = addr >> self.line_bits
        l1 = self.levels[0]
        hit, evicted = l1.access(line, is_write)
        if hit:
            return l1.hit_latency, False, None, None
        l1_evicted = evicted[0] if evicted is not None and evicted[1] else None
        latency, reached_nvm, llc_evicted = self.miss(line, is_write)
        return latency, reached_nvm, l1_evicted, llc_evicted

    def miss(self, line: int, is_write: bool, start: int = 1):
        """Walk the levels from *start* down after a miss above it.

        Returns ``(latency, reached_nvm, llc_evicted)`` with the same
        meanings as :meth:`access` (the caller tracks the L1 victim).
        The simulator's fused loop probes L1 -- and L2, when there is
        one -- inline and enters the walk at the first level it did not
        unroll.
        """
        levels = self.levels
        latency = levels[start - 1].hit_latency
        dram = self.dram
        last = len(levels) - 1
        llc_evicted = None
        for i in range(start, last + 1):
            level = levels[i]
            latency = level.hit_latency
            hit, evicted = level.access(line, is_write)
            if i == last and dram is None and evicted is not None and evicted[1]:
                llc_evicted = evicted[0]
            if hit:
                return latency, False, llc_evicted
        if dram is not None:
            latency += dram.hit_latency
            hit, evicted = dram.access(line, is_write)
            if evicted is not None and evicted[1]:
                llc_evicted = evicted[0]
            if hit:
                return latency, False, llc_evicted
        return latency, True, llc_evicted

    def prime(self, ranges, from_level: int = 0) -> None:
        """Warm the hierarchy with address ranges, smallest first.

        Models the steady-state residency a sampled trace window would
        inherit from the billion instructions before it: each range is
        inserted (clean) into every level whose capacity still covers
        the cumulative footprint, and into the DRAM cache always.

        ``from_level`` skips the levels above it (the multicore
        simulator warms only the shared levels -- index 1 and below --
        so every core's private L1 starts equally cold).
        """
        ranges = sorted(ranges, key=lambda r: r[1])
        cumulative = 0
        level_cutoff: list = []
        for base, size in ranges:
            cumulative += size
            level_cutoff.append(cumulative)
        for li, level in enumerate(self.levels):
            if li < from_level:
                continue
            capacity = level.n_sets * level.ways << level.line_bits
            for (base, size), cum in zip(ranges, level_cutoff):
                if cum > capacity:
                    continue
                level.prime(base >> level.line_bits, (base + size) >> level.line_bits)
        if self.dram is not None:
            # Largest ranges first, so the smaller (hotter) classes win
            # direct-mapped conflicts -- the steady state a long
            # execution converges to.
            bits = self.line_bits
            self.dram.prime([(b >> bits, (b + s) >> bits) for b, s in reversed(ranges)])

    def snapshot(self) -> dict:
        """JSON-serializable tag state of every level and the DRAM cache."""
        return {
            "l1": self.levels[0].snapshot(),
            "shared": [level.snapshot() for level in self.levels[1:]],
            "dram": self.dram.snapshot() if self.dram is not None else None,
        }

    def contribute(self, metrics) -> None:
        """Register per-level miss ratios (metrics spine).

        Each level owns a ``cache.<name>.miss_rate`` ratio record;
        ``cache.l1.miss_rate`` / ``cache.llc.miss_rate`` are the two the
        figures consume.  Ratios merge by summing both sides, so the
        aggregate rate over merged runs stays access-weighted.
        """
        def add(name: str, cache) -> None:
            rec = metrics.ratio(name)
            rec.num += cache.misses
            rec.den += cache.hits + cache.misses

        add("cache.l1.miss_rate", self.levels[0])
        for level in self.levels[1:]:
            add(f"cache.{level.name.lower()}.miss_rate", level)
        if self.dram is not None:
            add("cache.dram.miss_rate", self.dram)
        add("cache.llc.miss_rate", self.dram if self.dram is not None else self.levels[-1])
