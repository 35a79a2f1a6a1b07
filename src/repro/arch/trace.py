"""Batched event-stream representation for the simulator hot path.

The historical trace format is one Python tuple per committed
instruction -- ``("l", addr)`` and friends -- which costs an object
allocation per instruction at generation time and an index per field
at consumption time.  A :class:`PackedTrace` stores the same stream as
two parallel batches: a ``str`` of event codes and a list of operand
addresses (0 for code-only events).  ``TimingSimulator.run`` consumes
it with a fused ``zip`` loop (CPython reuses the result tuple, so the
per-event allocation disappears), and the workload generators emit it
directly without materializing per-instruction objects.  The
simulators pack any other event iterable once at entry
(:func:`as_packed`), so a packed trace is the only form they run.

A packed trace iterates as the legacy tuples, so every consumer that
only walks events (fault injectors, the test oracles)
accepts either representation; :meth:`to_events`/:meth:`from_events`
convert explicitly.  The two representations are *value-identical* by
contract: simulating either form of the same stream must produce
byte-identical stats (pinned by tests/test_golden_identity.py).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

Event = Tuple

#: Event codes that carry no address payload.
CODES_NO_ADDR = frozenset("abf")
#: Event codes that carry an address payload.
CODES_WITH_ADDR = frozenset("lscx")
#: All valid event codes.
CODES = CODES_NO_ADDR | CODES_WITH_ADDR


class PackedTrace:
    """An event stream as parallel code/address batches."""

    __slots__ = ("codes", "addrs")

    def __init__(self, codes: str, addrs: List[int]) -> None:
        if len(codes) != len(addrs):
            raise ValueError(
                f"codes/addrs length mismatch: {len(codes)} != {len(addrs)}"
            )
        if not set(codes) <= CODES:
            bad = sorted(set(codes) - CODES)
            raise ValueError(
                f"invalid event code(s) {bad}; valid codes are {sorted(CODES)}"
            )
        self.codes = codes
        self.addrs = addrs

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Event]:
        """Yield legacy per-event tuples (compatibility path)."""
        no_addr = CODES_NO_ADDR
        for code, addr in zip(self.codes, self.addrs):
            yield (code,) if code in no_addr else (code, addr)

    def __getitem__(self, i: Union[int, slice]) -> Union[Event, "PackedTrace"]:
        if isinstance(i, slice):
            return PackedTrace(self.codes[i], self.addrs[i])
        code = self.codes[i]
        return (code,) if code in CODES_NO_ADDR else (code, self.addrs[i])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedTrace):
            return self.codes == other.codes and self.addrs == other.addrs
        return NotImplemented

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "PackedTrace":
        codes: List[str] = []
        addrs: List[int] = []
        cappend = codes.append
        aappend = addrs.append
        for ev in events:
            cappend(ev[0])
            aappend(ev[1] if len(ev) > 1 else 0)
        return cls("".join(codes), addrs)

    @classmethod
    def concat(cls, parts: Sequence["PackedTrace"]) -> "PackedTrace":
        """Join chunks into one trace (zero-copy for a single chunk)."""
        if len(parts) == 1:
            return parts[0]
        addrs: List[int] = []
        for part in parts:
            addrs.extend(part.addrs)
        return cls("".join(part.codes for part in parts), addrs)

    def to_events(self) -> List[Event]:
        return list(self)

    def view(self) -> "EventView":
        """Thin legacy-tuple sequence over this trace (no materialization)."""
        return EventView(self)

    def digest(self) -> str:
        """Content hash of the exact event stream (codes and addresses).

        Pins chunk-size independence in tests and validates that a
        checkpoint is resumed against the same externally-supplied
        trace it was cut from.
        """
        h = hashlib.sha256()
        h.update(self.codes.encode("ascii"))
        # One buffer build + one hash update (same 10-byte little-endian
        # layout per address as the historical per-address loop, so every
        # pinned digest stays byte-identical).
        h.update(
            b"".join(addr.to_bytes(10, "little", signed=False) for addr in self.addrs)
        )
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedTrace({len(self.codes)} events)"


class EventView:
    """Legacy per-event-tuple view of a :class:`PackedTrace`.

    Iterates, indexes, and compares like the historical list of tuples
    -- including equality against plain lists in either operand order
    (``list.__eq__`` returns ``NotImplemented`` for a view, so Python
    falls back to the view's reflected comparison) -- while storing
    only a reference to the packed batches.  This is the single
    unpacked representation the IR adapter and workload generator hand
    to consumers that walk tuples; the simulators unwrap it back to
    the packed trace.
    """

    __slots__ = ("packed",)

    def __init__(self, packed: PackedTrace) -> None:
        self.packed = packed

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.packed)

    def __getitem__(self, i: Union[int, slice]) -> Union[Event, "EventView"]:
        if isinstance(i, slice):
            return EventView(self.packed[i])
        return self.packed[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventView):
            return self.packed == other.packed
        if isinstance(other, PackedTrace):
            return self.packed == other
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.packed) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable underlying storage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventView({len(self.packed)} events)"


def unpack_events(events) -> Union[PackedTrace, Iterable[Event]]:
    """Unwrap an :class:`EventView` to its packed trace, pass through
    everything else."""
    return events.packed if isinstance(events, EventView) else events


def as_packed(events) -> PackedTrace:
    """The simulators' entry normalization: an :class:`EventView`
    unwraps to its packed trace, a packed trace passes through, and
    any other iterable of event tuples is packed once."""
    events = unpack_events(events)
    if isinstance(events, PackedTrace):
        return events
    return PackedTrace.from_events(events)
