"""Every paper table/figure as a declarative :class:`ExperimentSpec`.

Each experiment is a *reducer* -- a pure function from a
:class:`~repro.harness.spec.Resolver` to a :class:`FigureResult` --
plus expected-shape assertions.  The engine plans the union of all
requested experiments' point grids, deduplicates it (the baseline runs
are shared by every normalized-slowdown figure), executes misses in
parallel, and replays the reducers against cached results; see
:mod:`repro.harness.engine`.

``SPECS`` is the one registry, and each spec's ``check`` is the one
home of the paper claims its figure makes (DESIGN.md section 4); the
checks claim the paper's shape at ``n_insts >= 2000``.  ``n_insts``
trades fidelity for speed; the defaults regenerate EXPERIMENTS.md in a
few minutes.

Run from the command line::

    python -m repro.harness                    # everything, cached
    python -m repro.harness fig13 fig21 --jobs 4
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.arch.config import (
    CXL_DEVICES,
    CXL_DRAM,
    CacheConfig,
    NVM_TECHS,
    machine_with_cache_levels,
    skylake_machine,
)
from repro.harness.report import FigureResult, gmean
from repro.harness.spec import ExperimentSpec, PlanContext, Resolver
from repro.schemes import ablation_ladder, baseline, capri, cwsp, psp_ideal, replaycache
from repro.workloads.profiles import ALL_APPS, MEMORY_INTENSIVE, PROFILES, SUITES, apps_in_suite


def _suite_rows(result: FigureResult, per_app: Dict[str, List[float]], cols: int) -> None:
    """Append per-suite gmean rows plus the overall gmean row."""
    for suite in SUITES:
        apps = [a for a in per_app if PROFILES[a].suite == suite]
        if not apps:
            continue
        result.add(f"[{suite}]", *[gmean(per_app[a][i] for a in apps) for i in range(cols)])
    result.add("[All gmean]", *[gmean(per_app[a][i] for a in per_app) for i in range(cols)])


def _ideal_pipeline(machine, bw: float):
    """A persist pipeline idealized to *bw* GB/s (path and NVM writes).

    The paper's "ideal 32GB/s" Capri configuration is only on par with
    cWSP if the whole persist pipeline scales, so the 32GB/s points
    raise the NVM write bandwidth along with the path.
    """
    return replace(
        machine,
        persist_bw_gbps=bw,
        nvm=replace(machine.nvm, write_bw_gbps=max(machine.nvm.write_bw_gbps, bw)),
    )


def _app_rows(result: FigureResult) -> List[List]:
    return [row for row in result.rows if not str(row[0]).startswith("[")]


# ----------------------------------------------------------------------
# Figure 1: CXL PMEM vs CXL DRAM with 2-5 cache levels
# ----------------------------------------------------------------------
def _fig01(r: Resolver, ctx: PlanContext) -> FigureResult:
    """Normalized slowdown of CXL PMEM vs CXL DRAM main memory."""
    result = FigureResult(
        "Figure 1",
        "CXL PMEM vs CXL DRAM slowdown, 2-5 cache levels (baseline, no persistence)",
        ["app", "2 levels", "3 levels", "4 levels", "5 levels"],
        paper_says="slowdown falls monotonically 2.14x -> 1.34x with deeper hierarchy",
    )
    apps = [a for a in MEMORY_INTENSIVE if PROFILES[a].suite in ("CPU2006", "Mini-apps", "WHISPER")]
    per_app: Dict[str, List[float]] = {}
    for app in apps:
        row = []
        for levels in (2, 3, 4, 5):
            m_pmem = machine_with_cache_levels(levels, scaled=True)
            m_dram = machine_with_cache_levels(levels, nvm=CXL_DRAM, scaled=True)
            row.append(
                r.stats(app, baseline(), m_pmem, None).cycles
                / r.stats(app, baseline(), m_dram, None).cycles
            )
        per_app[app] = row
        result.add(app, *row)
    _suite_rows(result, per_app, 4)
    all_row = result.rows[-1]
    result.summary = {f"gmean_{l}lv": all_row[i + 1] for i, l in enumerate((2, 3, 4, 5))}
    return result


def _check_fig01(result: FigureResult) -> None:
    s = result.summary
    assert s["gmean_2lv"] > s["gmean_3lv"] > s["gmean_5lv"], (
        "slowdown must fall with hierarchy depth"
    )
    assert s["gmean_2lv"] > 1.3, "a shallow hierarchy hurts"
    assert s["gmean_5lv"] < s["gmean_2lv"] * 0.85, "a deep hierarchy recovers much of it"


# ----------------------------------------------------------------------
# Figure 6: L1D write-buffer occupancy
# ----------------------------------------------------------------------
def _fig06(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Figure 6",
        "Mean L1D write-buffer occupancy (entries), baseline vs cWSP",
        ["app", "baseline", "cWSP"],
        paper_says="both average ~0.39 entries; cWSP's WB delaying adds no pressure",
    )
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        b = r.stats(app, baseline(), machine, None).wb_mean_occupancy
        c = r.stats(app, cwsp(), machine, "pruned").wb_mean_occupancy
        per_app[app] = [max(b, 1e-9), max(c, 1e-9)]
        result.add(app, b, c)
    base_mean = sum(v[0] for v in per_app.values()) / len(per_app)
    cwsp_mean = sum(v[1] for v in per_app.values()) / len(per_app)
    result.add("[mean]", base_mean, cwsp_mean)
    result.summary = {"baseline_mean": base_mean, "cwsp_mean": cwsp_mean}
    return result


def _check_fig06(result: FigureResult) -> None:
    assert len(result.rows) == len(ALL_APPS) + 1, "one row per app plus the mean"
    base, cw = result.summary["baseline_mean"], result.summary["cwsp_mean"]
    assert base < 2.0 and cw < 2.0, "write-buffer occupancy stays tiny"
    assert cw < base * 2.0 + 0.2, "WB delaying adds no write-buffer pressure"


# ----------------------------------------------------------------------
# Figure 8: WPQ hits per million instructions
# ----------------------------------------------------------------------
def _fig08(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Figure 8",
        "Loads hitting a pending WPQ entry, per 1M instructions (cWSP)",
        ["app", "WPQ HPMI"],
        paper_says="~0.98 hits per million instructions on average: negligible",
    )
    vals = []
    for app in ALL_APPS:
        h = r.stats(app, cwsp(), machine, "pruned").wpq_hits_per_minst
        vals.append(h)
        result.add(app, h)
    mean = sum(vals) / len(vals)
    result.add("[mean]", mean)
    result.summary = {"mean_hpmi": mean}
    return result


def _check_fig08(result: FigureResult) -> None:
    assert all(v >= 0 for v in result.column("WPQ HPMI")), "HPMI cannot be negative"
    assert result.summary["mean_hpmi"] < 200.0, "WPQ load hits are negligible"


# ----------------------------------------------------------------------
# Figure 13: headline cWSP overhead
# ----------------------------------------------------------------------
def _fig13(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Figure 13",
        "cWSP normalized slowdown vs baseline (4GB/s persist path)",
        ["app", "slowdown"],
        paper_says="6% gmean overall; SPLASH3 (lu-contig, radix) highest",
    )
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        s = r.slowdown(app, cwsp(), machine)
        per_app[app] = [s]
        result.add(app, s)
    _suite_rows(result, per_app, 1)
    result.summary = {"all_gmean": result.rows[-1][1]}
    return result


def _check_fig13(result: FigureResult) -> None:
    assert len(_app_rows(result)) == len(ALL_APPS), "all 37 apps present"
    assert result.rows[-1][0] == "[All gmean]", "the overall gmean row comes last"
    assert 1.0 < result.summary["all_gmean"] < 1.15, "cWSP overhead stays low"
    suites = {row[0]: row[1] for row in result.rows[len(ALL_APPS):-1]}
    assert all(suites["[SPLASH3]"] >= v for v in suites.values()), (
        "SPLASH3 is the worst suite"
    )


# ----------------------------------------------------------------------
# Figure 14: cWSP vs ReplayCache vs Capri
# ----------------------------------------------------------------------
def _fig14(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    m32 = _ideal_pipeline(machine, 32.0)
    result = FigureResult(
        "Figure 14",
        "WSP scheme comparison (normalized slowdown; -4GB/-32GB = persist path bandwidth)",
        ["suite", "ReplayCache", "Capri-4GB", "Capri-32GB", "cWSP-4GB", "cWSP-32GB"],
        paper_says="ReplayCache ~4.3x; Capri-4GB 1.27x; Capri-32GB ~= cWSP; cWSP 1.06x",
    )
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        per_app[app] = [
            r.slowdown(app, replaycache(), machine, "unpruned"),
            r.slowdown(app, capri(), machine, "unpruned"),
            r.slowdown(app, capri(), m32, "unpruned", baseline_machine=machine),
            r.slowdown(app, cwsp(), machine, "pruned"),
            r.slowdown(app, cwsp(), m32, "pruned", baseline_machine=machine),
        ]
    _suite_rows(result, per_app, 5)
    last = result.rows[-1]
    result.summary = {
        "replaycache": last[1],
        "capri_4gb": last[2],
        "capri_32gb": last[3],
        "cwsp_4gb": last[4],
        "cwsp_32gb": last[5],
    }
    return result


def _check_fig14(result: FigureResult) -> None:
    s = result.summary
    assert s["replaycache"] > s["capri_4gb"] > s["cwsp_4gb"], (
        "ReplayCache is worst, then Capri-4GB, then cWSP"
    )
    assert s["capri_32gb"] < s["capri_4gb"] * 0.75, "ideal bandwidth rescues Capri"
    assert s["capri_32gb"] < 1.25, "Capri-32GB is roughly on par with cWSP"
    assert s["cwsp_4gb"] < 1.15, "cWSP overhead stays low"
    assert s["replaycache"] > 2.0, "ReplayCache costs a multiple"


# ----------------------------------------------------------------------
# Figure 15: per-optimization ablation
# ----------------------------------------------------------------------
def _fig15(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    ladder = ablation_ladder()
    result = FigureResult(
        "Figure 15",
        "Cumulative optimization ladder (normalized slowdown gmean)",
        ["suite"] + [name for name, _, _ in ladder],
        paper_says="4% -> 10% -> flat -> flat -> flat -> 6% (pruning recovers the ckpt traffic)",
    )
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        row = []
        for _, scheme, tk in ladder:
            row.append(r.slowdown(app, scheme, machine, tk["ckpts"]))
        per_app[app] = row
    _suite_rows(result, per_app, len(ladder))
    last = result.rows[-1]
    result.summary = {name: last[i + 1] for i, (name, _, _) in enumerate(ladder)}
    return result


def _check_fig15(result: FigureResult) -> None:
    assert len(result.headers) == 7, "suite column plus six ladder stages"
    s = result.summary
    rf, pp = s["+Region Formation"], s["+Persist Path"]
    assert 1.0 < rf < 1.12, "region formation alone is cheap"
    assert pp > rf, "the raw persist path costs more"
    assert abs(s["+MC Speculation"] - pp) < 0.05, "MC speculation is about free"
    assert abs(s["+WB Delaying"] - s["+MC Speculation"]) < 0.02, "WB delaying is about free"
    assert abs(s["+WPQ Delaying"] - s["+WB Delaying"]) < 0.02, "WPQ delaying is about free"
    assert s["+Pruning (cWSP)"] < pp, "pruning recovers the checkpoint traffic"


# ----------------------------------------------------------------------
# Table I: CXL device parameters
# ----------------------------------------------------------------------
def _tab01(r: Resolver, ctx: PlanContext) -> FigureResult:
    result = FigureResult(
        "Table I",
        "CXL memory devices modelled",
        ["device", "read_ns", "write_ns", "max_bw_gbps"],
        paper_says="CXL-A..D latency/bandwidth parameters",
    )
    for name, dev in CXL_DEVICES.items():
        result.add(name, dev.read_ns, dev.write_ns, dev.write_bw_gbps)
    return result


def _check_tab01(result: FigureResult) -> None:
    assert [row[0] for row in result.rows] == ["CXL-A", "CXL-B", "CXL-C", "CXL-D"], (
        "the four CXL devices"
    )
    devices = {row[0]: row for row in result.rows}
    assert devices["CXL-A"][1] < devices["CXL-C"][1], "CXL-A is the fastest NVDIMM"
    assert devices["CXL-D"][3] < devices["CXL-B"][3], "CXL-D is the bandwidth-limited PMEM"


# ----------------------------------------------------------------------
# Figure 17: cWSP on CXL-based NVM
# ----------------------------------------------------------------------
def _fig17(r: Resolver, ctx: PlanContext) -> FigureResult:
    result = FigureResult(
        "Figure 17",
        "cWSP slowdown on CXL devices (baseline = same device, no persistence)",
        ["app"] + list(CXL_DEVICES),
        paper_says="~4% average; slightly higher relative overhead on faster devices",
    )
    per_app: Dict[str, List[float]] = {}
    for app in MEMORY_INTENSIVE:
        row = []
        for dev in CXL_DEVICES.values():
            # CXL adds ~70ns interconnect latency (Pond, [74]).
            cxl_dev = replace(dev, link_ns=70.0)
            machine = skylake_machine(scaled=True, nvm=cxl_dev)
            row.append(r.slowdown(app, cwsp(), machine))
        per_app[app] = row
        result.add(app, *row)
    _suite_rows(result, per_app, len(CXL_DEVICES))
    last = result.rows[-1]
    result.summary = {name: last[i + 1] for i, name in enumerate(CXL_DEVICES)}
    return result


def _check_fig17(result: FigureResult) -> None:
    assert [row[0] for row in _app_rows(result)] == list(MEMORY_INTENSIVE), (
        "one row per memory-intensive app"
    )
    assert all(1.0 <= v < 1.25 for v in result.summary.values()), (
        "overhead stays low on every device"
    )


# ----------------------------------------------------------------------
# Figure 18: cWSP vs ideal PSP
# ----------------------------------------------------------------------
def _fig18(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Figure 18",
        "cWSP vs ideal PSP (BBB/eADR/LightPC: DRAM cache disabled)",
        ["app", "cWSP", "ideal PSP"],
        paper_says="cWSP ~3% vs PSP ~52% on memory-intensive apps",
    )
    per_app: Dict[str, List[float]] = {}
    for app in MEMORY_INTENSIVE:
        c = r.slowdown(app, cwsp(), machine)
        p = r.slowdown(app, psp_ideal(), machine, None)
        per_app[app] = [c, p]
        result.add(app, c, p)
    _suite_rows(result, per_app, 2)
    last = result.rows[-1]
    result.summary = {"cwsp": last[1], "psp": last[2]}
    return result


def _check_fig18(result: FigureResult) -> None:
    s = result.summary
    assert s["cwsp"] < 1.15, "cWSP stays cheap"
    assert s["psp"] > 1.10, "PSP pays NVM latency on every LLC miss"
    assert s["psp"] > s["cwsp"] + 0.05, (
        "losing the DRAM cache must cost more than cWSP's persistence"
    )


# ----------------------------------------------------------------------
# Figure 19: region characteristics
# ----------------------------------------------------------------------
def _fig19(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Figure 19",
        "Average dynamic instructions per idempotent region",
        ["app", "insts/region"],
        paper_says="38.15 on average; SPLASH3 regions much shorter",
    )
    vals = []
    for app in ALL_APPS:
        ipr = r.stats(app, cwsp(), machine, "pruned").insts_per_region
        vals.append(ipr)
        result.add(app, ipr)
    mean = sum(vals) / len(vals)
    result.add("[mean]", mean)
    result.summary = {"mean_insts_per_region": mean}
    return result


def _check_fig19(result: FigureResult) -> None:
    assert 30.0 < result.summary["mean_insts_per_region"] < 50.0, "regions are tens of insts"
    by_app = {row[0]: row[1] for row in result.rows}
    assert max(by_app[a] for a in apps_in_suite("SPLASH3")) < min(
        by_app[a] for a in apps_in_suite("CPU2006")
    ), "SPLASH3 regions are the shortest"


# ----------------------------------------------------------------------
# Figure 20: deeper SRAM hierarchy (added L3)
# ----------------------------------------------------------------------
def _fig20(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    l3_machine = replace(
        machine,
        caches=(
            CacheConfig("L1D", 16 << 10, 8, hit_latency=4),
            CacheConfig("L2", 64 << 10, 8, hit_latency=14),
            CacheConfig("L3", 256 << 10, 16, hit_latency=44),
        ),
    )
    result = FigureResult(
        "Figure 20",
        "cWSP slowdown with a 3-level SRAM hierarchy above the DRAM cache",
        ["app", "slowdown"],
        paper_says="still low: 8% on average",
    )
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        s = r.slowdown(app, cwsp(), l3_machine)
        per_app[app] = [s]
        result.add(app, s)
    _suite_rows(result, per_app, 1)
    result.summary = {"all_gmean": result.rows[-1][1]}
    return result


def _check_fig20(result: FigureResult) -> None:
    assert 1.0 < result.summary["all_gmean"] < 1.2, "overhead stays low with an L3"


# ----------------------------------------------------------------------
# Sweeps: Figures 21-27
# ----------------------------------------------------------------------
def _sweep(
    r: Resolver,
    name: str,
    description: str,
    paper_says: str,
    configs: Sequence,
    labels: Sequence[str],
    instrument: str = "pruned",
    scheme_factory=cwsp,
    per_config_baseline: bool = False,
) -> FigureResult:
    """Sweep cWSP over machine *configs*.

    By default the baseline runs once on the stock machine (the swept
    parameters only exist in the persist machinery, which the baseline
    does not use).  ``per_config_baseline=True`` normalizes each point
    to a baseline on the *same* machine -- needed when the sweep
    changes something the baseline sees too, like the NVM technology
    (Figure 27's "cWSP benefits less from faster NVM than the
    baseline" effect depends on it).
    """
    base_machine = skylake_machine(scaled=True)
    result = FigureResult(name, description, ["suite"] + list(labels), paper_says=paper_says)
    per_app: Dict[str, List[float]] = {}
    for app in ALL_APPS:
        per_app[app] = [
            r.slowdown(
                app,
                scheme_factory(),
                m,
                instrument,
                baseline_machine=m if per_config_baseline else base_machine,
            )
            for m in configs
        ]
    _suite_rows(result, per_app, len(configs))
    last = result.rows[-1]
    result.summary = {label: last[i + 1] for i, label in enumerate(labels)}
    return result


def _fig21(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    bands = (1.0, 2.0, 4.0, 10.0, 20.0, 32.0)
    configs = [_ideal_pipeline(machine, bw) if bw > 8 else replace(machine, persist_bw_gbps=bw) for bw in bands]
    return _sweep(
        r,
        "Figure 21",
        "cWSP slowdown vs persist path bandwidth",
        "overhead falls with bandwidth; flat beyond 10GB/s (8-byte granularity)",
        configs,
        [f"{int(b)}GB" for b in bands],
    )


def _check_fig21(result: FigureResult) -> None:
    s = result.summary
    assert s["1GB"] > s["4GB"] > s["32GB"] * 0.99, "more persist bandwidth never hurts"
    assert s["1GB"] > 1.2, "a 1GB/s path throttles the core"
    assert s["10GB"] - s["32GB"] < 0.05, "flat beyond 10GB/s"


def _fig22(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    sizes = (8, 16, 32)
    return _sweep(
        r,
        "Figure 22",
        "cWSP slowdown vs RBT size",
        "11% at RBT-8 (SPLASH3 up to 20%), 6% at 16, 4% at 32",
        [replace(machine, rbt_entries=s) for s in sizes],
        [f"RBT-{s}" for s in sizes],
    )


def _check_fig22(result: FigureResult) -> None:
    s = result.summary
    assert s["RBT-8"] >= s["RBT-16"] >= s["RBT-32"] * 0.99, "a smaller RBT is never faster"
    suites = {row[0]: row[1] for row in result.rows}
    assert suites["[SPLASH3]"] > suites["[All gmean]"], "SPLASH3 hurts most at RBT-8"


def _fig23(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    lats = (10.0, 20.0, 30.0, 40.0)
    return _sweep(
        r,
        "Figure 23",
        "cWSP slowdown vs persist path latency",
        "nearly flat: the RBT overlaps the path latency with execution",
        [replace(machine, persist_lat_ns=l) for l in lats],
        [f"Lat-{int(l)}" for l in lats],
    )


def _check_fig23(result: FigureResult) -> None:
    s = result.summary
    assert s["Lat-40"] - s["Lat-10"] < 0.06, "the RBT overlaps path latency with execution"
    assert all(v < 1.2 for v in s.values()), "latency sweep stays low"


def _fig24(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    sizes = (8, 16, 32)
    return _sweep(
        r,
        "Figure 24",
        "cWSP slowdown vs L1D write-buffer size",
        "flat regardless of WB size (persist path outruns the regular path)",
        [replace(machine, wb_entries=s) for s in sizes],
        [f"WB-{s}" for s in sizes],
    )


def _check_fig24(result: FigureResult) -> None:
    assert abs(result.summary["WB-8"] - result.summary["WB-32"]) < 0.03, "WB sweep flat"


def _fig25(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    sizes = (20, 40, 50, 60)
    return _sweep(
        r,
        "Figure 25",
        "cWSP slowdown vs persist buffer (PB) size",
        "insensitive; at PB-20 the overhead rises to only ~7%",
        [replace(machine, pb_entries=s) for s in sizes],
        [f"PB-{s}" for s in sizes],
    )


def _check_fig25(result: FigureResult) -> None:
    s = result.summary
    assert list(s) == ["PB-20", "PB-40", "PB-50", "PB-60"], "the four PB sizes"
    assert s["PB-20"] >= s["PB-60"] * 0.99, "a smaller PB is never faster"
    assert s["PB-20"] - s["PB-60"] < 0.08, "even PB-20 costs only a little more"


def _fig26(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    sizes = (8, 16, 24, 32)
    return _sweep(
        r,
        "Figure 26",
        "cWSP slowdown vs NVM WPQ size",
        "11% at WPQ-8 (SPLASH3 up to 31%); flat at 24 and beyond",
        [replace(machine, wpq_entries=s) for s in sizes],
        [f"WPQ-{s}" for s in sizes],
    )


def _check_fig26(result: FigureResult) -> None:
    s = result.summary
    assert s["WPQ-8"] >= s["WPQ-24"] * 0.99, "a smaller WPQ is never faster"
    assert s["WPQ-8"] >= s["WPQ-32"] * 0.98, "WPQ-8 is never faster than WPQ-32"
    assert abs(s["WPQ-24"] - s["WPQ-32"]) < 0.03, "flat at 24 entries and beyond"


def _fig27(r: Resolver, ctx: PlanContext) -> FigureResult:
    machine = skylake_machine(scaled=True)
    techs = ("PMEM", "STTRAM", "ReRAM")
    return _sweep(
        r,
        "Figure 27",
        "cWSP slowdown vs NVM technology (each normalized to its own baseline)",
        "low (<=8%) on all; marginally higher relative overhead on faster NVM",
        [replace(machine, nvm=NVM_TECHS[t]) for t in techs],
        techs,
        per_config_baseline=True,
    )


def _check_fig27(result: FigureResult) -> None:
    assert all(1.0 <= v < 1.2 for v in result.summary.values()), (
        "overhead stays low and never negative on every NVM technology"
    )


# ----------------------------------------------------------------------
# Multicore: 8 cores sharing LLC/MCs (the paper's FS-mode setup for the
# multithreaded suites)
# ----------------------------------------------------------------------
def _multicore(r: Resolver, ctx: PlanContext) -> FigureResult:
    """cWSP overhead with 8 threads contending for MCs/WPQs."""
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Multicore",
        "8-core cWSP slowdown (shared LLC/WPQ/NVM bandwidth)",
        ["workload", "1-core", "8-core"],
        paper_says="the multithreaded suites (SPLASH3/WHISPER/STAMP) run on 8 cores; "
        "MC speculation keeps boundary stalls away despite contention",
    )
    rows = {}
    for suite in ("SPLASH3", "WHISPER", "STAMP"):
        apps = apps_in_suite(suite)
        mix = tuple(apps[i % len(apps)] for i in range(8))
        single = (
            r.multicore(mix[:1], cwsp(), machine, "pruned", prime_apps=mix).cycles
            / r.multicore(mix[:1], baseline(), machine, None, prime_apps=mix).cycles
        )
        multi = (
            r.multicore(mix, cwsp(), machine, "pruned").cycles
            / r.multicore(mix, baseline(), machine, None).cycles
        )
        rows[suite] = (single, multi)
        result.add(suite, single, multi)
    result.summary = {
        "gmean_1core": gmean(v[0] for v in rows.values()),
        "gmean_8core": gmean(v[1] for v in rows.values()),
    }
    return result


def _check_multicore(result: FigureResult) -> None:
    assert [row[0] for row in result.rows] == ["SPLASH3", "WHISPER", "STAMP"], (
        "one row per multithreaded suite"
    )
    s = result.summary
    # SPLASH3-class writers approach the PMEM write bandwidth.
    assert 1.0 <= s["gmean_8core"] < 1.9, "overhead stays bounded under 8-way contention"
    assert s["gmean_8core"] >= s["gmean_1core"] * 0.9, "contention does not make persistence free"


# ----------------------------------------------------------------------
# Section IX-N: hardware overhead
# ----------------------------------------------------------------------
def _hardware_overhead(r: Resolver, ctx: PlanContext) -> FigureResult:
    """The 176-byte RBT storage cost (Section IX-N)."""
    result = FigureResult(
        "Section IX-N",
        "cWSP hardware storage overhead",
        ["structure", "entries", "entry_bytes", "total_bytes"],
        paper_says="176 bytes: 16 RBT entries x 11 bytes; PB reuses the 1KB Intel WCB",
    )
    # RBT entry: Region ID (4B) + PendingWrs (2B) + MCBitVec (1B) +
    # RS Pointer (4B) = 11 bytes (Figure 9).
    entry = 4 + 2 + 1 + 4
    rbt_entries = 16
    result.add("RBT", rbt_entries, entry, rbt_entries * entry)
    result.add("PB (reuses Intel WCB)", 50, 0, 0)
    result.summary = {"rbt_bytes": float(rbt_entries * entry)}
    return result


def _check_hw(result: FigureResult) -> None:
    assert result.summary["rbt_bytes"] == 176.0, "the RBT costs 176 bytes"
    rbt = next(row for row in result.rows if row[0] == "RBT")
    assert rbt[1] == 16 and rbt[2] == 11, "16 RBT entries of 11 bytes"


# ----------------------------------------------------------------------
# Extra experiment: recovery correctness and cost (the paper's gap)
# ----------------------------------------------------------------------
def recovery_check(stride: int = 5) -> FigureResult:
    """Inject power failures into compiled IR kernels and verify recovery."""
    from repro.compiler import compile_module
    from repro.recovery import check_crash_consistency
    from repro.workloads.programs import build_kernel, KERNELS

    result = FigureResult(
        "Recovery",
        "Power-failure injection on compiled IR kernels (beyond the paper)",
        ["kernel", "failure points", "divergences", "mean re-exec fraction"],
        paper_says="paper has no recovery test; cWSP argues re-execution of tens of instructions",
    )
    total_points = 0
    total_div = 0
    for name in KERNELS:
        module, entry, args = build_kernel(name)
        compile_module(module)
        report = check_crash_consistency(module, entry, args, stride=stride)
        total_points += report.points_checked
        total_div += len(report.divergences)
        result.add(
            name,
            report.points_checked,
            len(report.divergences),
            report.mean_resumed_fraction,
        )
    result.summary = {"points": float(total_points), "divergences": float(total_div)}
    return result


def _check_recovery(result: FigureResult) -> None:
    assert result.summary["divergences"] == 0.0, "every injected failure must recover"
    assert result.summary["points"] > 100, "the sweep injects over a hundred failures"


def faults_campaign() -> FigureResult:
    """A small seeded adversarial fault campaign (beyond the paper).

    Nested crashes, torn persists, corrupted logs/checkpoints, and
    boundary-state cuts over two single-threaded kernels, plus the
    multicore campaign (cuts at atomics and during other threads'
    recovery, swept interleavings) over three concurrent kernels; the
    full campaigns are ``python -m repro.faults`` and
    ``python -m repro.faults --multicore`` (``--smoke`` is the CI gate).
    """
    from repro.faults.campaign import CampaignSpec, run_campaign
    from repro.faults.multicore import MTCampaignSpec
    from repro.harness.report import campaign_cells, campaign_result

    spec = CampaignSpec(
        kernels=["counter", "linked_list"],
        strategies=["nested", "torn", "corruption", "boundary"],
        seed=1,
        stride=31,
        stride2=13,
        torn_stride=29,
        corruption_trials=12,
    )
    result = campaign_result(run_campaign(spec))

    mt_spec = MTCampaignSpec(
        kernels=["mpmc_queue", "treiber_stack", "ticket_counter"],
        strategies=["mt-atomic", "mt-nested", "mt-interleave"],
        seed=1,
        stride=31,
        stride2=19,
        atomic_stride=3,
        interleave_stride=47,
    )
    mt_artifact = run_campaign(mt_spec)
    for (kernel, scheme, strategy), counts in campaign_cells(mt_artifact):
        result.add(f"{kernel}[{scheme}]", strategy, *counts)
    mt_summary = campaign_result(mt_artifact).summary
    for key in ("trials", "divergent", "degraded"):
        result.summary[key] += mt_summary[key]
    result.summary["mt_trials"] = mt_summary["trials"]
    waits = [
        cell["wait_per_sync"]
        for kernel in mt_artifact["delay_free"].values()
        for cell in kernel.values()
    ]
    result.summary["mt_wait_per_sync_max"] = max(waits) if waits else 0.0
    return result


def _check_faults(result: FigureResult) -> None:
    assert result.summary["divergent"] == 0.0, "no silent divergences allowed"
    assert result.summary["mt_trials"] > 0, "multicore campaign must contribute"


def intermittent_power() -> FigureResult:
    """The intermittent-power scenario family (beyond the paper).

    Duty-cycle sweep over the timing simulator: power arrives in
    on-intervals, volatile state dies at each failure, persisting
    schemes resume from their last durable region boundary after a
    fixed recovery cost in cycles, the baseline restarts from scratch.
    Reports forward progress, re-execution overhead, and end-to-end
    slowdown per scheme; the full sweep is ``python -m repro.faults
    --power-trace`` (``--smoke`` is the CI gate).
    """
    from repro.faults.power import (
        PowerCampaignSpec,
        intermittent_result,
        run_power_campaign,
    )

    spec = PowerCampaignSpec(
        apps=("astar", "bzip2"),
        schemes=("baseline", "cwsp", "capri", "replaycache"),
        on_fracs=(0.1, 0.3),
        duties=(0.5,),
        n_insts=2000,
        seed=3,
    )
    return intermittent_result(run_power_campaign(spec))


def _check_intermittent(result: FigureResult) -> None:
    assert result.summary["violations"] == 0.0, "model invariants must hold"
    assert result.summary["baseline_max_progress"] == 0.0, (
        "the baseline persists nothing mid-run, so no durable progress"
    )
    assert result.summary["persist_min_progress"] > 0.0, (
        "persisting schemes retain region-granular progress"
    )
    assert result.summary["persist_completed"] > 0.0, (
        "some persisting scheme must complete at the generous supply point"
    )


# ----------------------------------------------------------------------
# Delay-free stall accounting (Ben-David et al. yardstick)
# ----------------------------------------------------------------------
def _delayfree(r: Resolver, ctx: PlanContext) -> FigureResult:
    """Fraction of cycles each WSP scheme spends blocked on persistence
    where a delay-free durable algorithm would not block: stale-read
    ordering waits plus fence/atomic/boundary persist stalls."""
    machine = skylake_machine(scaled=True)
    result = FigureResult(
        "Delay-free",
        "Delay-free-violating stall cycles as a fraction of runtime "
        "(atomic-heavy multithreaded suites; baseline = no persistence, control)",
        ["app", "baseline", "cWSP", "Capri", "ReplayCache"],
        paper_says=(
            "not in the paper; Ben-David et al.'s delay-free model says a "
            "design should never block an op on others' persists -- this "
            "quantifies the waits cWSP's sync-point drains mandate anyway"
        ),
    )
    apps = [a for a in ALL_APPS if PROFILES[a].suite in ("SPLASH3", "WHISPER", "STAMP")]
    per_app: Dict[str, List[float]] = {}
    for app in apps:
        row = [
            r.stats(app, baseline(), machine, None).delay_free_stall_frac,
            r.stats(app, cwsp(), machine, "pruned").delay_free_stall_frac,
            r.stats(app, capri(), machine, "unpruned").delay_free_stall_frac,
            r.stats(app, replaycache(), machine, "unpruned").delay_free_stall_frac,
        ]
        per_app[app] = row
        result.add(app, *row)
    means = [
        sum(per_app[a][i] for a in per_app) / len(per_app) for i in range(4)
    ]
    result.add("[mean]", *means)
    result.summary = {
        "baseline_mean": means[0],
        "cwsp_mean": means[1],
        "capri_mean": means[2],
        "replaycache_mean": means[3],
    }
    return result


def _check_delayfree(result: FigureResult) -> None:
    assert result.summary["baseline_mean"] == 0.0, (
        "baseline persists nothing, so its delay-free stall must be zero"
    )
    for key in ("cwsp_mean", "capri_mean", "replaycache_mean"):
        assert 0.0 <= result.summary[key] < 1.0, f"{key} must be a fraction"


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
SPECS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec("fig01", "CXL PMEM vs DRAM, 2-5 cache levels", _fig01, check=_check_fig01),
        ExperimentSpec("fig06", "L1D write-buffer occupancy", _fig06, check=_check_fig06),
        ExperimentSpec("fig08", "WPQ load hits per 1M insts", _fig08, check=_check_fig08),
        ExperimentSpec("fig13", "cWSP headline slowdown", _fig13, check=_check_fig13),
        ExperimentSpec("fig14", "cWSP vs ReplayCache vs Capri", _fig14, check=_check_fig14),
        ExperimentSpec("fig15", "cumulative optimization ladder", _fig15, check=_check_fig15),
        ExperimentSpec("tab01", "CXL device parameters", _tab01, simulates=False, check=_check_tab01),
        ExperimentSpec("fig17", "cWSP on CXL devices", _fig17, check=_check_fig17),
        ExperimentSpec("fig18", "cWSP vs ideal PSP", _fig18, check=_check_fig18),
        ExperimentSpec("fig19", "instructions per region", _fig19, check=_check_fig19),
        ExperimentSpec("fig20", "cWSP with added L3", _fig20, check=_check_fig20),
        ExperimentSpec("fig21", "persist-path bandwidth sweep", _fig21, check=_check_fig21),
        ExperimentSpec("fig22", "RBT size sweep", _fig22, check=_check_fig22),
        ExperimentSpec("fig23", "persist-path latency sweep", _fig23, check=_check_fig23),
        ExperimentSpec("fig24", "write-buffer size sweep", _fig24, check=_check_fig24),
        ExperimentSpec("fig25", "persist-buffer size sweep", _fig25, check=_check_fig25),
        ExperimentSpec("fig26", "WPQ size sweep", _fig26, check=_check_fig26),
        ExperimentSpec("fig27", "NVM technology sweep", _fig27, check=_check_fig27),
        ExperimentSpec("hw", "hardware storage overhead", _hardware_overhead, simulates=False, check=_check_hw),
        ExperimentSpec(
            "multicore", "8-core cWSP slowdown", _multicore,
            default_n_insts=20_000, check=_check_multicore,
        ),
        ExperimentSpec(
            "recovery", "crash-recovery checker",
            lambda r, ctx: recovery_check(), simulates=False, check=_check_recovery,
        ),
        ExperimentSpec(
            "faults", "adversarial fault campaign",
            lambda r, ctx: faults_campaign(), simulates=False, check=_check_faults,
        ),
        ExperimentSpec(
            "intermittent", "intermittent-power duty-cycle sweep",
            lambda r, ctx: intermittent_power(), simulates=False,
            check=_check_intermittent,
        ),
        ExperimentSpec(
            "delayfree", "delay-free stall accounting", _delayfree,
            check=_check_delayfree,
        ),
    ]
}

