"""Completion-time queues: the timing simulator's workhorse.

A hardware queue (WB, PB, WPQ, RBT) is modelled as a FIFO of
*completion timestamps*.  Advancing to the current time pops finished
entries while integrating occupancy over time, which gives exact
time-weighted average occupancy (Figure 6's metric) without simulating
every cycle.

A preallocated ring buffer was tried here and benchmarked *slower*
than ``collections.deque`` (2.0M vs. 2.3M ops/sec on
``python -m repro.perf queues.ops``): CPython 3.11+ specializes
``__slots__`` attribute access and the C deque's popleft/append beat
pure-Python index arithmetic.  The deque stays; the measured result is
recorded in DESIGN.md so the experiment is not silently re-run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class CompletionQueue:
    """FIFO of completion times with occupancy accounting."""

    __slots__ = ("capacity", "entries", "occ_integral", "_last_t", "pushes", "full_stalls")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Deque[float] = deque()
        self.occ_integral = 0.0
        self._last_t = 0.0
        self.pushes = 0
        self.full_stalls = 0

    def advance(self, now: float) -> None:
        """Pop entries completed by *now*, integrating occupancy."""
        entries = self.entries
        last = self._last_t
        while entries and entries[0] <= now:
            t = entries.popleft()
            if t > last:
                # Occupancy during (last, t] included the popped entry.
                self.occ_integral += (len(entries) + 1) * (t - last)
                last = t
        if now > last:
            self.occ_integral += len(entries) * (now - last)
            last = now
        self._last_t = last

    def admit(self, now: float) -> float:
        """Time at which a slot is free (possibly stalling until then)."""
        self.advance(now)
        if len(self.entries) >= self.capacity:
            self.full_stalls += 1
            head = self.entries[0]
            self.advance(head)
            return max(now, head)
        return now

    def push(self, completion_time: float) -> None:
        """Append an entry completing at *completion_time* (must be FIFO-ordered)."""
        self.pushes += 1
        if self.entries and completion_time < self.entries[-1]:
            completion_time = self.entries[-1]  # keep FIFO completion order
        self.entries.append(completion_time)

    def head_completion(self) -> float:
        return self.entries[0] if self.entries else 0.0

    def occupancy(self) -> int:
        return len(self.entries)

    def mean_occupancy(self, now: float) -> float:
        """Time-weighted mean occupancy over [0, now].

        A zero-cycle window reads 0.0 -- the same truthiness guard as
        ``SimStats.ipc``, so empty runs report consistent zeros across
        every derived metric.
        """
        self.advance(now)
        return self.occ_integral / now if now else 0.0

    def snapshot(self) -> dict:
        """JSON-serializable state."""
        return {
            "entries": list(self.entries),
            "occ_integral": self.occ_integral,
            "last_t": self._last_t,
            "pushes": self.pushes,
            "full_stalls": self.full_stalls,
        }

    def contribute(self, metrics, prefix: str, now: float) -> None:
        """Register this queue's records under *prefix* (metrics spine).

        Called at simulation finalize; records are mergeable, so several
        queues of the same kind (the per-MC WPQs) or several cores'
        private queues fold into aggregate stats naturally.
        """
        self.advance(now)
        metrics.counter(f"{prefix}.pushes").value += self.pushes
        metrics.counter(f"{prefix}.full_stalls").value += self.full_stalls
        occ = metrics.time_weighted(f"{prefix}.mean_occupancy")
        occ.integral += self.occ_integral
        occ.time += now


class OccupancyProbe:
    """Tagged occupancy series with extreme-point queries.

    Records ``(tag, occupancy)`` samples for one queue -- the tag is
    whatever index the caller sweeps over (committed-event number,
    cycle, drain opportunity) -- and answers "where were the
    interesting states?": maxima, minima, and threshold crossings.  The
    fault-injection campaign uses it to aim power cuts at PB/RBT
    occupancy extremes instead of fixed strides; it is equally usable
    against :class:`CompletionQueue` traces in the timing simulator.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: list = []  # (tag, occupancy)

    def sample(self, tag: int, occupancy: int) -> None:
        self.samples.append((tag, occupancy))

    def max_occupancy(self) -> int:
        return max((occ for _, occ in self.samples), default=0)

    def argmax(self) -> Optional[int]:
        """Tag of the first sample reaching the maximum occupancy."""
        best: Optional[int] = None
        best_occ = -1
        for tag, occ in self.samples:
            if occ > best_occ:
                best, best_occ = tag, occ
        return best

    def argmin(self) -> Optional[int]:
        """Tag of the first sample at the minimum occupancy."""
        best: Optional[int] = None
        best_occ: Optional[int] = None
        for tag, occ in self.samples:
            if best_occ is None or occ < best_occ:
                best, best_occ = tag, occ
        return best

    def first_reaching(self, threshold: int) -> Optional[int]:
        """Tag of the first sample with occupancy >= *threshold*."""
        for tag, occ in self.samples:
            if occ >= threshold:
                return tag
        return None

    def crossings(self, threshold: int) -> List[int]:
        """Tags where occupancy first rises to >= *threshold* after
        having been below it (boundary states: fill-up edges)."""
        tags: List[int] = []
        below = True
        for tag, occ in self.samples:
            if occ >= threshold and below:
                tags.append(tag)
                below = False
            elif occ < threshold:
                below = True
        return tags

    def extreme_tags(self, capacity: Optional[int] = None) -> List[int]:
        """Deduplicated interesting tags: max, min, full/near-full edges."""
        tags = [self.argmax(), self.argmin()]
        if capacity is not None:
            tags.append(self.first_reaching(capacity))
            tags.extend(self.crossings(max(1, capacity - 1))[:4])
        seen = set()
        out: List[int] = []
        for t in tags:
            if t is not None and t not in seen:
                seen.add(t)
                out.append(t)
        return out
