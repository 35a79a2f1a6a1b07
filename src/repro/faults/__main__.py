"""``python -m repro.faults`` — the adversarial fault-injection CLI.

Campaign mode (default) sweeps fault schedules over the compiled IR
kernels and fails (exit 1) on any silent divergence; ``--multicore``
runs the campaign against the concurrent kernel suite on
``ThreadedExecution`` trials instead (cuts at atomics, per-thread
boundaries, nested cuts during other threads' recovery, swept
interleavings); ``repro`` mode replays one serialized schedule, which
is how every divergence artifact is reproduced.

``--power-trace`` switches to the intermittent-power timing model
instead: duty-cycle sweeps over the synthetic workloads measuring
forward progress and re-execution overhead per scheme, with recovery
costed in cycles (exit 1 on model-invariant violations).

Examples::

    python -m repro.faults --smoke
    python -m repro.faults --multicore --smoke
    python -m repro.faults --power-trace --smoke
    python -m repro.faults --power-trace --apps astar --on-fracs 0.1,0.3
    python -m repro.faults --kernels counter,sort --strategies nested,torn --k 3
    python -m repro.faults --multicore --kernels mpmc_queue --schemes default,skewed
    python -m repro.faults repro --kernel counter --schedule '{"cuts": [57, 4]}'
    python -m repro.faults repro --kernel mpmc_queue --schedule '{"cuts": [25, 0]}'
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.faults.campaign import (
    STRATEGIES,
    CampaignSpec,
    run_campaign,
    run_trial,
    smoke_spec,
    write_artifact,
)
from repro.faults.multicore import (
    MT_SCHEMES,
    MT_STRATEGIES,
    MTCampaignSpec,
    mt_smoke_spec,
)
from repro.faults.schedule import FaultSchedule
from repro.harness.report import campaign_result
from repro.workloads.programs import CONC_KERNELS, KERNELS


#: The strides a campaign runs without --stride/--stride2, in both modes.
STRIDE, STRIDE2 = 7, 5

#: The flags that shape a campaign: --smoke runs its own fixed spec, so
#: giving one of them with it is an error.
_CAMPAIGN_SPEC_FLAGS = (
    "--kernels", "--strategies", "--schemes", "--k", "--stride", "--stride2",
    "--torn-stride", "--corruption-trials", "--random-trials",
)
_POWER_SPEC_FLAGS = (
    "--apps", "--schemes", "--on-fracs", "--duties", "--n-insts",
    "--recovery-cycles",
)


def _csv(text: str) -> List[str]:
    return [item for item in text.split(",") if item]


def _campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--multicore", action="store_true",
                        help="campaign over concurrent kernels on "
                             "ThreadedExecution trials")
    parser.add_argument("--kernels", type=_csv, default=None,
                        help="comma-separated kernel names (default: all "
                             "for the selected mode)")
    parser.add_argument("--strategies", type=_csv, default=None,
                        help=f"single-core: {','.join(STRATEGIES)}; "
                             f"multicore: {','.join(MT_STRATEGIES)}")
    parser.add_argument("--schemes", type=_csv, default=None,
                        help=f"multicore config schemes from {','.join(MT_SCHEMES)}")
    parser.add_argument("--seed", type=int, default=1, help="campaign RNG seed")
    # The spec-shaping numbers default to None, "not given", so --smoke
    # (and, for the single-core-only ones, --multicore) rejects them
    # instead of ignoring them.
    parser.add_argument("--k", type=int, help="nested-crash depth (default: 2)")
    parser.add_argument("--stride", type=int,
                        help=f"primary-cut stride (default: {STRIDE})")
    parser.add_argument("--stride2", type=int,
                        help=f"nested-offset stride (default: {STRIDE2})")
    parser.add_argument("--torn-stride", type=int, help="default: 7")
    parser.add_argument("--corruption-trials", type=int, help="default: 40")
    parser.add_argument("--random-trials", type=int, help="default: 30")
    parser.add_argument("--jobs", type=int, default=None, help="worker processes")
    parser.add_argument("--out", default=None, help="write JSON artifact here")
    parser.add_argument("--smoke", action="store_true",
                        help="fast seeded CI campaign over quick kernels")


def _reject_with_smoke(parser, opts, flags) -> None:
    """--smoke runs a fixed spec: a spec-shaping flag with it is an error."""
    if opts.smoke:
        for flag in flags:
            if getattr(opts, flag[2:].replace("-", "_")) is not None:
                parser.error(f"{flag} cannot be combined with --smoke")


def _validate_choices(parser, what: str, given: List[str], valid) -> None:
    """Satellite: reject bad names up front with the valid list, before
    any schedule generation or worker pool sees them."""
    bad = [item for item in given if item not in valid]
    if bad:
        parser.error(f"unknown {what} {bad}; choose from {','.join(valid)}")


def _csv_floats(text: str) -> List[float]:
    return [float(item) for item in text.split(",") if item]


def _power_trace_main(argv: List[str]) -> int:
    from repro.faults.power import (
        PowerCampaignSpec,
        power_smoke_spec,
        run_power_campaign,
    )
    from repro.faults.power import intermittent_result

    parser = argparse.ArgumentParser(prog="repro.faults --power-trace")
    parser.add_argument("--power-trace", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--apps", type=_csv, default=None,
                        help="comma-separated app profiles (default: astar,bzip2)")
    parser.add_argument("--schemes", type=_csv, default=None,
                        help="persistence schemes to sweep "
                             "(default: baseline,cwsp,capri,replaycache)")
    parser.add_argument("--on-fracs", type=_csv_floats, default=None,
                        help="mean on-interval lengths, as fractions of each "
                             "run's uninterrupted cycles")
    parser.add_argument("--duties", type=_csv_floats, default=None,
                        help="power duty cycles (on-time fractions)")
    parser.add_argument("--n-insts", type=int, default=None,
                        help="trace length per run (default: 4000)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--recovery-cycles", type=float, default=None,
                        help="fixed restore cost per power-up, in cycles "
                             "(default: 200)")
    parser.add_argument("--out", default=None, help="write JSON artifact here")
    parser.add_argument("--smoke", action="store_true",
                        help="fast seeded CI sweep")
    opts = parser.parse_args(argv)
    _reject_with_smoke(parser, opts, _POWER_SPEC_FLAGS)
    if opts.smoke:
        spec = power_smoke_spec(seed=opts.seed)
    else:
        defaults = PowerCampaignSpec()
        spec = PowerCampaignSpec(
            apps=tuple(opts.apps) if opts.apps else defaults.apps,
            schemes=tuple(opts.schemes) if opts.schemes else defaults.schemes,
            on_fracs=tuple(opts.on_fracs) if opts.on_fracs else defaults.on_fracs,
            duties=tuple(opts.duties) if opts.duties else defaults.duties,
            n_insts=defaults.n_insts if opts.n_insts is None else opts.n_insts,
            seed=opts.seed,
            recovery_cycles=(
                defaults.recovery_cycles
                if opts.recovery_cycles is None
                else opts.recovery_cycles
            ),
        )
    try:
        artifact = run_power_campaign(spec, log=print)
    except ValueError as exc:
        parser.error(str(exc))
    print(intermittent_result(artifact).format_table())
    if opts.out:
        write_artifact(artifact, opts.out)
        print(f"artifact written to {opts.out}")
    violations = artifact["violations"]
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        print(f"FAIL: {len(violations)} model-invariant violations")
        return 1
    totals = artifact["totals"]
    print(
        f"PASS: {totals['points']} supply points, {totals['completed']} completed, "
        f"{totals['stalled']} stalled, 0 violations "
        f"({artifact['meta']['elapsed_s']}s)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--power-trace" in argv:
        return _power_trace_main(argv)
    if argv and argv[0] == "repro":
        parser = argparse.ArgumentParser(prog="repro.faults repro")
        parser.add_argument("--kernel", required=True,
                            choices=list(KERNELS) + list(CONC_KERNELS))
        parser.add_argument("--schedule", required=True,
                            help="JSON FaultSchedule, as emitted in artifacts")
        opts = parser.parse_args(argv[1:])
        try:
            schedule = FaultSchedule.from_json(opts.schedule)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            parser.error(f"bad --schedule JSON: {exc}")
        if opts.kernel in CONC_KERNELS:
            if schedule.tear is not None or schedule.flip is not None:
                parser.error(f"--kernel {opts.kernel} is concurrent: its "
                             "schedules take cuts and interleave only")
        elif schedule.interleave:
            parser.error(f"--kernel {opts.kernel} is single-core: interleave "
                         "applies to concurrent kernels only")
        record = run_trial(opts.kernel, schedule)
        print(f"{record.status.upper()}: {opts.kernel} {schedule.describe()}")
        if record.detail:
            print(f"  {record.detail}")
        return 1 if record.is_failure else 0

    parser = argparse.ArgumentParser(prog="repro.faults", description=__doc__)
    _campaign_args(parser)
    opts = parser.parse_args(argv)
    _reject_with_smoke(parser, opts, _CAMPAIGN_SPEC_FLAGS)
    # --smoke defaults to a two-worker pool; an explicit --jobs wins.
    jobs = opts.jobs if opts.jobs is not None else (2 if opts.smoke else 1)
    for flag, value, low in (
        ("--jobs", jobs, 1),
        ("--k", opts.k, 2),
        ("--stride", opts.stride, 1),
        ("--stride2", opts.stride2, 1),
        ("--torn-stride", opts.torn_stride, 1),
        ("--corruption-trials", opts.corruption_trials, 0),
        ("--random-trials", opts.random_trials, 0),
    ):
        if value is not None and value < low:
            parser.error(f"{flag} must be at least {low}")
    if not opts.multicore and opts.schemes is not None:
        parser.error("--schemes only applies to --multicore campaigns")
    # The single-core-only numbers that were given, by CampaignSpec field.
    single = ("k", "torn_stride", "corruption_trials", "random_trials")
    given = {n: getattr(opts, n) for n in single if getattr(opts, n) is not None}
    if opts.multicore and given:
        flag = "--" + next(iter(given)).replace("_", "-")
        parser.error(f"{flag} only applies to single-core campaigns")

    mc = opts.multicore
    stride = STRIDE if opts.stride is None else opts.stride
    stride2 = STRIDE2 if opts.stride2 is None else opts.stride2
    all_kernels = CONC_KERNELS if mc else KERNELS
    all_strategies = MT_STRATEGIES if mc else STRATEGIES
    kernels = opts.kernels if opts.kernels is not None else list(all_kernels)
    strategies = (
        opts.strategies if opts.strategies is not None else list(all_strategies)
    )
    _validate_choices(parser, "kernels", kernels, all_kernels)
    _validate_choices(parser, "strategies", strategies, all_strategies)
    schemes = opts.schemes if opts.schemes is not None else list(MT_SCHEMES)
    _validate_choices(parser, "schemes", schemes, MT_SCHEMES)
    if opts.smoke:
        spec = mt_smoke_spec(seed=opts.seed) if mc else smoke_spec(seed=opts.seed)
    elif mc:
        spec = MTCampaignSpec(
            kernels=kernels,
            schemes=schemes,
            strategies=strategies,
            seed=opts.seed,
            stride=stride,
            stride2=stride2,
        )
    else:
        spec = CampaignSpec(
            kernels=kernels,
            strategies=strategies,
            seed=opts.seed,
            stride=stride,
            stride2=stride2,
            **given,
        )
    artifact = run_campaign(spec, jobs=jobs, log=print)
    print(campaign_result(artifact).format_table())

    if opts.out:
        write_artifact(artifact, opts.out)
        print(f"artifact written to {opts.out}")
    n_failures = len(artifact["divergences"])
    if n_failures:
        print(f"FAIL: {n_failures} divergent fault schedules (repro commands above)")
        return 1
    totals = artifact["totals"]
    print(
        f"PASS: {totals['trials']} trials, {totals['degraded']} graceful "
        f"degradations, 0 silent divergences ({artifact['meta']['elapsed_s']}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
