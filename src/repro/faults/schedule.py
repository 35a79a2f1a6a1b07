"""Fault schedules: the serializable unit of adversarial testing.

A :class:`FaultSchedule` pins down *exactly* what the adversary does to
one run -- where power cuts land (including nested cuts during
recovery), whether the primary cut tears an in-flight persist, and
which storage bit gets flipped before the final recovery -- plus the
provenance (strategy name, RNG seed) that generated it.  Schedules
round-trip through JSON so every divergence artifact is reproducible
with a single CLI invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional


@dataclass(frozen=True)
class TearSpec:
    """Tear the Nth MC apply of the first epoch (1-based), then cut power.

    A torn persist and its power cut are the same instant: the 8-byte
    write was mid-flight when the capacitors ran dry, so only the low
    half reached NVM.
    """

    apply_index: int


@dataclass(frozen=True)
class FlipSpec:
    """Flip one bit in persistent recovery storage before the final
    recovery: an undo-log entry's saved old-value (``target="log"``) or
    a checkpoint-storage NVM word (``target="ckpt"``).  ``index`` picks
    the victim modulo the surviving population, so any value is valid.
    """

    target: str  # "log" | "ckpt"
    index: int
    bit: int


@dataclass
class FaultSchedule:
    """One adversarial run plan.

    ``cuts`` are committed-event counts: with no tear, ``cuts[0]`` is
    the first power cut and ``cuts[1:]`` are nested cuts, each counted
    from the start of the corresponding *resumed* epoch (0 = power dies
    again during recovery itself, before any resumed instruction
    commits).  With a tear, the tear is the first cut and every entry
    of ``cuts`` is nested.
    """

    cuts: List[int] = field(default_factory=list)
    tear: Optional[TearSpec] = None
    flip: Optional[FlipSpec] = None
    #: PersistenceConfig field overrides (e.g. {"pb_size": 8}).
    config: Dict[str, object] = field(default_factory=dict)
    #: Thread scheduling order for multicore trials (see
    #: :class:`~repro.recovery.multithread.ThreadedExecution`): each
    #: round runs the threads in this sequence, entries modulo the
    #: thread count, missing threads appended.  Empty = round-robin.
    #: The shrinker minimizes over this dimension too.
    interleave: List[int] = field(default_factory=list)
    #: Provenance: generating strategy and campaign RNG seed.
    strategy: str = ""
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # A primary cut of 0 has no meaning (a nested 0 is "during
        # recovery"), and a negative count would fire after the first
        # event as if it were 1: reject both instead of replaying a
        # schedule other than the one written.
        for i, cut in enumerate(self.cuts):
            low = 1 if i == 0 and self.tear is None else 0
            if cut < low:
                kind = "primary" if low else "nested"
                raise ValueError(f"{kind} cut must be at least {low}, got {cut}")
        if self.tear is not None and self.tear.apply_index < 1:
            raise ValueError(
                f"tear apply index must be at least 1, got {self.tear.apply_index}"
            )

    @property
    def nested_cuts(self) -> List[int]:
        return list(self.cuts) if self.tear is not None else list(self.cuts[1:])

    @property
    def crash_count(self) -> int:
        """Total power cuts (the k in a k-crash sequence)."""
        return len(self.cuts) + (1 if self.tear is not None else 0)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"cuts": list(self.cuts)}
        if self.tear is not None:
            out["tear"] = self.tear.apply_index
        if self.flip is not None:
            out["flip"] = [self.flip.target, self.flip.index, self.flip.bit]
        if self.config:
            out["config"] = dict(self.config)
        if self.interleave:
            out["interleave"] = list(self.interleave)
        if self.strategy:
            out["strategy"] = self.strategy
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        tear = data.get("tear")
        flip = data.get("flip")
        return cls(
            cuts=[int(c) for c in data.get("cuts", [])],
            tear=TearSpec(int(tear)) if tear is not None else None,
            flip=FlipSpec(str(flip[0]), int(flip[1]), int(flip[2])) if flip else None,
            config=dict(data.get("config", {})),
            interleave=[int(t) for t in data.get("interleave", [])],
            strategy=str(data.get("strategy", "")),
            seed=data.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def repro_command(self, kernel: str) -> str:
        """The one-liner that replays exactly this schedule."""
        return (
            "PYTHONPATH=src python -m repro.faults repro "
            f"--kernel {kernel} --schedule '{self.to_json()}'"
        )

    def describe(self) -> str:
        parts = []
        if self.tear is not None:
            parts.append(f"tear@apply{self.tear.apply_index}")
        if self.cuts:
            parts.append("cuts=" + ",".join(str(c) for c in self.cuts))
        if self.flip is not None:
            parts.append(f"flip:{self.flip.target}[{self.flip.index}]^{self.flip.bit}")
        if self.config:
            parts.append("cfg=" + ",".join(f"{k}={v}" for k, v in self.config.items()))
        if self.interleave:
            parts.append("ilv=" + ",".join(str(t) for t in self.interleave))
        return " ".join(parts) or "clean"

    def but(self, **changes) -> "FaultSchedule":
        """A copy with fields replaced (shrinking helper)."""
        return replace(self, **changes)


@dataclass
class TrialRecord:
    """Verdict of one schedule against its kernel's reference run.

    ``status`` is one of:

    - ``ok``         recovered and matched the failure-free run exactly
    - ``completed``  the fault never fired (schedule beyond program end)
                     and the clean run matched the reference
    - ``degraded``   recovery detected storage damage and returned a
                     structured DegradedRecovery restart (acceptable:
                     never a silent wrong answer)
    - ``divergent``  recovered *silently wrong* -- output or final NVM
                     state mismatched the reference
    - ``error``      an unexpected exception escaped the trial
    """

    kernel: str
    schedule: FaultSchedule
    status: str
    detail: str = ""
    epochs: int = 0

    @property
    def is_failure(self) -> bool:
        return self.status in ("divergent", "error")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "schedule": self.schedule.to_dict(),
            "status": self.status,
            "detail": self.detail,
            "epochs": self.epochs,
            "repro": self.schedule.repro_command(self.kernel),
        }
