"""Campaign strategies: turning a kernel into a list of fault schedules.

Every strategy is a pure generator over a :class:`KernelProfile`
(collected by one clean instrumented run), so schedules are fully
determined by (kernel, strategy parameters, seed) and any divergence
replays from its serialized schedule alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arch.queues import OccupancyProbe
from repro.ir.function import Module
from repro.recovery.failure import run_with_failure, sampled_points
from repro.recovery.model import PersistenceConfig
from repro.faults.injectors import ProbeHook, make_config, resume_epoch
from repro.faults.schedule import FaultSchedule, FlipSpec, TearSpec


@dataclass
class KernelProfile:
    """What one clean instrumented run reveals about a kernel."""

    name: str
    total_events: int
    total_applies: int
    pb_probe: OccupancyProbe = field(default_factory=OccupancyProbe)
    rbt_probe: OccupancyProbe = field(default_factory=OccupancyProbe)


def profile_kernel(
    module: Module,
    name: str,
    entry: str,
    args: Tuple[int, ...],
    config_overrides: Optional[dict] = None,
) -> KernelProfile:
    """One clean run with the probe hook armed: count committed events
    and MC applies, and sample PB/RBT occupancy at every drain."""
    profile = KernelProfile(name=name, total_events=0, total_applies=0)
    hook = ProbeHook(pb_probe=profile.pb_probe, rbt_probe=profile.rbt_probe)
    config = make_config(config_overrides or {})
    model, completed, _state = run_with_failure(
        module, None, entry, args, config, fault_hook=hook
    )
    assert completed, "profiling run must complete"
    profile.total_events = model.events_seen
    profile.total_applies = hook.applies
    return profile


def single_cut_sweep(
    profile, stride: int, strategy: str = "single"
) -> List[FaultSchedule]:
    """The classic checker sweep as one campaign strategy: clean cuts.

    Any profile with a ``total_events`` count serves; the multicore
    campaign runs it over a threaded run as ``mt-single``.
    """
    return [
        FaultSchedule(cuts=[p], strategy=strategy)
        for p in sampled_points(profile.total_events, stride)
    ]


def nested_crash_sweep(
    module: Module,
    profile: KernelProfile,
    entry: str,
    args: Tuple[int, ...],
    stride: int,
    stride2: int,
    k: int = 2,
    seed: int = 0,
) -> List[FaultSchedule]:
    """k-crash sequences: for each stride-sampled primary cut, measure
    the resumed epoch's length by recovering once cleanly, then aim
    nested cuts at every stride2-sampled offset (always including 0 --
    a cut during recovery itself -- and the epoch's final event).
    Depths beyond 2 extend the deepest schedules with seeded-random
    offsets rather than exhaustively exploding the product space.
    """
    rng = random.Random(seed)
    schedules: List[FaultSchedule] = []
    for p in sampled_points(profile.total_events, stride):
        model, completed, _ = run_with_failure(module, p, entry, args)
        if completed:
            continue
        out = resume_epoch(module, model, None, entry, args, None)
        if out.kind != "completed":
            # Clean recovery failed outright; emit the bare schedule so
            # the campaign records the divergence.
            schedules.append(FaultSchedule(cuts=[p], strategy=f"nested-k{k}", seed=seed))
            continue
        offsets = sorted(set(sampled_points(out.events, stride2, first=0)) | {0})
        for q in offsets:
            cuts = [p, q]
            for _ in range(k - 2):
                cuts.append(rng.randrange(0, max(1, out.events)))
            schedules.append(FaultSchedule(cuts=cuts, strategy=f"nested-k{k}", seed=seed))
    return schedules


def torn_persist_sweep(profile: KernelProfile, stride: int) -> List[FaultSchedule]:
    """Tear each stride-sampled MC apply (always including the last)."""
    return [
        FaultSchedule(tear=TearSpec(i), strategy="torn")
        for i in sampled_points(profile.total_applies, stride)
    ]


def corruption_campaign(
    profile: KernelProfile, trials: int, seed: int
) -> List[FaultSchedule]:
    """Seeded-random cuts with a bit flip in undo-log entries or
    checkpoint storage just before recovery."""
    rng = random.Random(seed)
    schedules = []
    for _ in range(trials):
        target = rng.choice(("log", "ckpt"))
        schedules.append(
            FaultSchedule(
                cuts=[rng.randrange(1, profile.total_events + 1)],
                flip=FlipSpec(target, rng.randrange(1 << 16), rng.randrange(64)),
                strategy="corruption",
                seed=seed,
            )
        )
    return schedules


#: Config squeeze used by the boundary strategy: small PB/RBT so
#: occupancy extremes actually mean full queues and forced drains.
BOUNDARY_CONFIG = {"pb_size": 8, "rbt_size": 4}


def boundary_state_sweep(
    module: Module,
    name: str,
    entry: str,
    args: Tuple[int, ...],
    config_overrides: Optional[dict] = None,
) -> List[FaultSchedule]:
    """Aim cuts at PB/RBT occupancy extremes found by probing the
    model's internal state (not fixed strides): maxima, minima, and
    fill-up edges, each as a single cut and as a k=2 nested pair."""
    overrides = dict(BOUNDARY_CONFIG if config_overrides is None else config_overrides)
    profile = profile_kernel(module, name, entry, args, overrides)
    config = PersistenceConfig(**{
        k: tuple(v) if k == "mc_skew" else v for k, v in overrides.items()
    })
    tags = set(profile.pb_probe.extreme_tags(capacity=config.pb_size))
    tags |= set(profile.rbt_probe.extreme_tags(capacity=config.rbt_size))
    tags |= {1, profile.total_events}
    schedules: List[FaultSchedule] = []
    for tag in sorted(t for t in tags if 1 <= t <= profile.total_events):
        schedules.append(
            FaultSchedule(cuts=[tag], config=overrides, strategy="boundary")
        )
        schedules.append(
            FaultSchedule(cuts=[tag, 0], config=overrides, strategy="boundary")
        )
        schedules.append(
            FaultSchedule(cuts=[tag, 3], config=overrides, strategy="boundary")
        )
    return schedules


def random_mix(
    profile: KernelProfile, trials: int, seed: int
) -> List[FaultSchedule]:
    """Seeded-random grab bag: any crash depth 1-3, optionally a torn
    primary, optionally corruption before the final recovery."""
    rng = random.Random(seed)
    schedules = []
    for _ in range(trials):
        depth = rng.choice((1, 1, 2, 2, 3))
        tear = None
        cuts: List[int] = []
        if rng.random() < 0.25 and profile.total_applies:
            tear = TearSpec(rng.randrange(1, profile.total_applies + 1))
            depth -= 1
        else:
            cuts.append(rng.randrange(1, profile.total_events + 1))
            depth -= 1
        for _ in range(depth):
            cuts.append(rng.randrange(0, 60))
        flip = None
        if rng.random() < 0.3:
            flip = FlipSpec(rng.choice(("log", "ckpt")), rng.randrange(1 << 16), rng.randrange(64))
        schedules.append(
            FaultSchedule(cuts=cuts, tear=tear, flip=flip, strategy="random", seed=seed)
        )
    return schedules
