"""Mergeable metric records: the component-owned stats spine.

Historically every statistic a figure needed was a field on one flat
``SimStats`` dataclass, so adding a hardware structure meant editing a
central list.  Instead, each component (``CompletionQueue``,
``CacheHierarchy``, the core loop in ``TimingSimulator``) now registers
and owns *records* in a :class:`MetricSet`:

- :class:`Counter` -- additive event count (merge: sum);
- :class:`Gauge` -- a level such as the cycle clock (merge: max, which
  gives makespan semantics across cores);
- :class:`TimeWeighted` -- an occupancy integral over time (merge: sum
  both, so the mean stays time-weighted across cores);
- :class:`Ratio` -- numerator/denominator pairs such as cache
  misses/accesses (merge: sum both, preserving the aggregate rate).

A :class:`MetricSet` is cheap to merge (multi-core aggregation), to
serialize (the experiment engine's on-disk result cache and the
per-run structured metrics dump), and to extend: a new structure calls
``metrics.counter("mystruct.events")`` and the record exists -- no
central dataclass edit, no schema migration.

:class:`SimStats`, one run's :class:`MetricSet` under the legacy flat
names, lives here rather than beside the simulator so that code which
only reads results -- the result cache, the reducers, the explorer --
does not import the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Counter:
    """Additive event count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def scalar(self) -> float:
        return self.value

    def dump(self) -> List[float]:
        return [self.value]

    def restore(self, fields: List[float]) -> None:
        self.value = fields[0]

    @classmethod
    def load(cls, fields: List[float]) -> "Counter":
        return cls(fields[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A level (e.g. the cycle clock); merging keeps the maximum."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value

    def scalar(self) -> float:
        return self.value

    def dump(self) -> List[float]:
        return [self.value]

    def restore(self, fields: List[float]) -> None:
        self.value = fields[0]

    @classmethod
    def load(cls, fields: List[float]) -> "Gauge":
        return cls(fields[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class TimeWeighted:
    """An occupancy integral with the time it was integrated over."""

    kind = "occupancy"
    __slots__ = ("integral", "time")

    def __init__(self, integral: float = 0.0, time: float = 0.0) -> None:
        self.integral = integral
        self.time = time

    @property
    def mean(self) -> float:
        return self.integral / self.time if self.time > 0 else 0.0

    def merge(self, other: "TimeWeighted") -> None:
        self.integral += other.integral
        self.time += other.time

    def scalar(self) -> float:
        return self.mean

    def dump(self) -> List[float]:
        return [self.integral, self.time]

    def restore(self, fields: List[float]) -> None:
        self.integral = fields[0]
        self.time = fields[1]

    @classmethod
    def load(cls, fields: List[float]) -> "TimeWeighted":
        return cls(fields[0], fields[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeWeighted({self.integral}/{self.time})"


class Ratio:
    """A numerator/denominator pair (e.g. misses over accesses)."""

    kind = "ratio"
    __slots__ = ("num", "den")

    def __init__(self, num: float = 0.0, den: float = 0.0) -> None:
        self.num = num
        self.den = den

    @property
    def rate(self) -> float:
        return self.num / self.den if self.den > 0 else 0.0

    def merge(self, other: "Ratio") -> None:
        self.num += other.num
        self.den += other.den

    def scalar(self) -> float:
        return self.rate

    def dump(self) -> List[float]:
        return [self.num, self.den]

    def restore(self, fields: List[float]) -> None:
        self.num = fields[0]
        self.den = fields[1]

    @classmethod
    def load(cls, fields: List[float]) -> "Ratio":
        return cls(fields[0], fields[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ratio({self.num}/{self.den})"


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, TimeWeighted, Ratio)}


class MetricSet:
    """Named metric records, each owned by the component that made it.

    ``counter``/``gauge``/``time_weighted``/``ratio`` are get-or-create
    accessors, so a component can register its records lazily at
    finalization time.  Requesting an existing name with a different
    record type is an error (two components colliding on a name).
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: Dict[str, object] = {}

    # -- registration --------------------------------------------------
    def _get(self, name: str, cls):
        rec = self._records.get(name)
        if rec is None:
            rec = cls()
            self._records[name] = rec
        elif type(rec) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(rec).kind}, "
                f"not {cls.kind}"
            )
        return rec

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def time_weighted(self, name: str) -> TimeWeighted:
        return self._get(name, TimeWeighted)

    def ratio(self, name: str) -> Ratio:
        return self._get(name, Ratio)

    # -- queries -------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        rec = self._records.get(name)
        return default if rec is None else rec.scalar()

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def names(self) -> List[str]:
        return sorted(self._records)

    def items(self) -> Iterator[Tuple[str, object]]:
        return iter(self._records.items())

    # -- merge / serialization -----------------------------------------
    def merge(self, other: "MetricSet") -> "MetricSet":
        for name, rec in other._records.items():
            self._get(name, type(rec)).merge(rec)
        return self

    def to_dict(self) -> Dict[str, List]:
        """JSON form: ``{name: [kind, *fields]}``, sorted by name."""
        return {
            name: [rec.kind] + rec.dump() for name, rec in sorted(self._records.items())
        }

    def restore_state(self, data: Dict[str, List]) -> None:
        """Restore serialized records *in place* (checkpoint protocol).

        Components bind record objects once at construction (the
        simulator's hot loop holds direct ``Counter`` references), so
        restoration must set fields on the existing objects rather
        than replace them.  Records not present in the snapshot are
        reset to fresh values, so a restore is exact regardless of
        registration order.
        """
        for name, rec in self._records.items():
            encoded = data.get(name)
            if encoded is None:
                rec.restore(type(rec)().dump())
            elif encoded[0] != rec.kind:
                raise ValueError(
                    f"metric {name!r} is {rec.kind}, snapshot says {encoded[0]!r}"
                )
            else:
                rec.restore(encoded[1:])
        for name, encoded in data.items():
            if name not in self._records:
                kind, fields = encoded[0], encoded[1:]
                try:
                    self._records[name] = _KINDS[kind].load(fields)
                except KeyError:
                    raise ValueError(
                        f"unknown metric kind {kind!r} for {name!r}"
                    ) from None

    @classmethod
    def from_dict(cls, data: Dict[str, List]) -> "MetricSet":
        ms = cls()
        for name, encoded in data.items():
            kind, fields = encoded[0], encoded[1:]
            try:
                ms._records[name] = _KINDS[kind].load(fields)
            except KeyError:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}") from None
        return ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSet({len(self._records)} records)"


def _count_view(name: str):
    def get(self: "SimStats") -> int:
        return int(self.metrics.value(name))

    return property(get)


def _float_view(name: str):
    def get(self: "SimStats") -> float:
        return self.metrics.value(name)

    return property(get)


class SimStats:
    """One run's metrics, with the legacy flat names as read views.

    The canonical storage is a component-owned :class:`MetricSet`:
    the core loop owns ``core.*``, ``nvm.*`` and ``path.*`` counters,
    each :class:`CompletionQueue` contributes its
    ``wb.*``/``pb.*``/``rbt.*``/``wpq.*`` records, and the cache
    hierarchy contributes ``cache.*`` ratios.  The flat
    attribute names the figures and tests have always used
    (``cycles``, ``nvm_writes``, ``wb_mean_occupancy``, ...) are
    read-only properties over those records, so new structures can
    report stats without editing this class.
    """

    __slots__ = ("scheme", "metrics")

    def __init__(self, scheme: str = "", metrics: Optional[MetricSet] = None) -> None:
        self.scheme = scheme
        self.metrics = MetricSet() if metrics is None else metrics

    # Legacy flat views over the component-owned records.
    cycles = _float_view("core.cycles")
    insts = _count_view("core.insts")
    loads = _count_view("core.loads")
    stores = _count_view("core.stores")
    boundaries = _count_view("core.boundaries")
    boundary_stall_cycles = _float_view("core.boundary_stall_cycles")
    l1_miss_rate = _float_view("cache.l1.miss_rate")
    llc_miss_rate = _float_view("cache.llc.miss_rate")
    nvm_reads = _count_view("nvm.reads")
    nvm_writes = _count_view("nvm.writes")
    persist_path_bytes = _count_view("path.bytes")
    wb_mean_occupancy = _float_view("wb.mean_occupancy")
    wb_delays = _count_view("wb.delays")
    pb_full_stalls = _count_view("pb.full_stalls")
    rbt_full_stalls = _count_view("rbt.full_stalls")
    wpq_full_stalls = _count_view("wpq.full_stalls")
    wpq_load_hits = _count_view("wpq.load_hits")
    delayfree_stale_wait_cycles = _float_view("delayfree.stale_wait_cycles")
    delayfree_sync_stall_cycles = _float_view("delayfree.sync_stall_cycles")

    @property
    def ipc(self) -> float:
        return self.insts / self.cycles if self.cycles else 0.0

    @property
    def insts_per_region(self) -> float:
        return self.insts / self.boundaries if self.boundaries else float(self.insts)

    @property
    def wpq_hits_per_minst(self) -> float:
        return self.wpq_load_hits / (self.insts / 1e6) if self.insts else 0.0

    @property
    def delay_free_stall_cycles(self) -> float:
        """Cycles blocked on persistence where a Ben-David-style
        delay-free design would not block: stale-read ordering waits
        plus every boundary/sync stall (``boundary_stall_cycles``
        already includes the fence/atomic slice that
        ``delayfree_sync_stall_cycles`` breaks out separately)."""
        return self.delayfree_stale_wait_cycles + self.boundary_stall_cycles

    @property
    def delay_free_stall_frac(self) -> float:
        """Fraction of total cycles that are delay-free-violating waits."""
        return self.delay_free_stall_cycles / self.cycles if self.cycles else 0.0

    def merge(self, other: "SimStats") -> "SimStats":
        """Fold another run's records in (multi-core aggregation)."""
        self.metrics.merge(other.metrics)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON form (engine result cache, per-run metrics dumps)."""
        return {"scheme": self.scheme, "metrics": self.metrics.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        return cls(data.get("scheme", ""), MetricSet.from_dict(data["metrics"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimStats(scheme={self.scheme!r}, cycles={self.cycles:.0f}, "
            f"insts={self.insts})"
        )
