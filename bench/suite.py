"""The four benchmark workloads: what each runs, prepares, times and checks.

Every workload drives a user-facing CLI of the program in child
processes, closed-loop: one operation at a time, the next starting
when the previous one has finished, always with ``--jobs 2``.  Each
operation gets fresh cache, output and campaign directories under the
run's scratch directory, which lives inside the checkout.

``figures-cold``
    ``python -m repro.harness`` on an empty cache: trace generation,
    cache priming, the event loop, the worker pool and the serial
    reduce all count.
``figures-warm``
    The same command on the cache a cold run filled: nothing simulates,
    so this is the control a simulator optimisation must leave alone.
``sweep-cold``
    ``python -m repro.explore`` on a small spec of 2k-instruction
    points, where fixed per-point cost (priming) dominates, plus the
    campaign's shard, frontier and lockfile work.
``serve-edit``
    A ``python -m repro.harness serve`` daemon over a copy of ``src/``;
    each operation appends a comment to the copy's scheme catalog and
    lasts until the generation it triggers reaches the ledger.

The sizes are chosen so that one run of ``--seconds 20`` holds several
operations of every workload on a 2-CPU host.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import spans as tracing
from measure import Sample

PY = sys.executable
JOBS = 2
#: No single operation may take longer than this.
OP_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The workload could not be prepared or measured at all."""


@dataclass(frozen=True)
class Sizes:
    """How big each workload is; ``--smoke`` shrinks every one."""

    figures: Tuple[str, ...]
    figures_n_insts: int
    sweep_spec: str  # file under bench/
    serve: Tuple[str, ...]
    serve_n_insts: Optional[int]  # None = each experiment's default
    setups: int  # set-up probes per run


DEFAULT = Sizes(("fig13", "multicore", "hw"), 10_000, "sweep.json", ("fig08",), None, 11)
SMOKE = Sizes(("fig18", "hw"), 1_000, "sweep-smoke.json", ("fig08",), 1_000, 2)


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes under *path*."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


@dataclass
class Run:
    """One benchmark run of one workload: its scratch space and settings."""

    root: Path
    seed: int
    sizes: Sizes
    work: Path
    deadline: float  # time.perf_counter() by which the run must end
    env: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.work.mkdir(parents=True)
        (self.work / "tmp").mkdir()
        env = dict(os.environ)
        env.pop("REPRO_BACKEND", None)  # measure the default simulator path
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            TMPDIR=str(self.work / "tmp"),
        )
        self.env = env
        self.log = self.work / "stderr.log"

    @property
    def bench(self) -> Path:
        return self.root / "bench"

    def compare_reference(self, key: str, digest: str) -> None:
        """Report loudly, without failing, a digest that differs from the
        one recorded for seed 1 at the default sizes: a deliberate change
        of results is not a crash."""
        if self.seed != 1 or self.sizes != DEFAULT:
            return
        expected = json.loads((self.bench / "expected.json").read_text())[key]
        if expected != digest:
            print(
                f"bench: REFERENCE MISMATCH for {key}: digest {digest}, "
                f"bench/expected.json records {expected}",
                file=sys.stderr,
            )

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.deadline - time.perf_counter()))

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def timed(self, args: List[str]) -> Sample:
        return measure.run_timed([PY, *args], self.env, self.work, self.log, self.timeout())

    def setup_time(self, source: str, cpu: int) -> Sample:
        """Time a fresh process running *source*, pinned to *cpu* so that
        the meter's samples of that CPU give its speed."""
        return self.timed(["-c", f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n{source}"])


class Workload:
    """One workload; subclasses fill in the command and its checks."""

    name = ""
    why = ""
    module = ""  # the CLI package: python -m <module>
    reference_key = ""  # its entry in expected.json
    #: The output digest every operation of the run must reproduce.
    digest: Optional[str] = None

    def setup_source(self, run: Run) -> str:
        """Python source a fresh process runs to time set-up."""
        raise NotImplementedError

    def prepare(self, run: Run) -> None:
        """Untimed work before the first operation."""

    def op(self, run: Run, index: int) -> Sample:
        raise NotImplementedError

    def finish(self, run: Run, samples: List[Sample]) -> None:
        """Untimed checks after the last operation; a failure marks the
        last sample failed."""

    def traced(self, run: Run) -> Tuple[Sample, Dict[str, float]]:
        """One traced pass: its sample and the per-layer metrics."""
        raise NotImplementedError

    def close(self, run: Run) -> None:
        """Stop whatever the workload left running."""

    def rss_samples(self, samples: List[Sample]) -> List[float]:
        return [s.peak_rss_mb for s in samples if s.ok]

    # -- shared by the one-shot CLI workloads ---------------------------
    def record(self, run: Run, sample: Sample, digest: str) -> None:
        """Check an operation's output digest: the run's first one is
        compared with the reference, every later one must equal it."""
        if not sample.ok:
            return
        if self.digest is None:
            self.digest = digest
            run.compare_reference(self.reference_key, digest)
        elif digest != self.digest:
            sample.ok = False
            sample.detail = f"output digest {digest} differs from {self.digest}"

    def traced_cli(
        self, run: Run, args: List[str], verify
    ) -> Tuple[Sample, Dict[str, float]]:
        """Run ``python -m <module> ARGS`` in-process under the tracer."""
        trace_dir = run.fresh("trace")
        cmd = [PY, str(run.bench / "spans.py"), str(trace_dir), self.module, *args]
        start = time.monotonic_ns()
        proc = measure.spawn(cmd, run.env, run.work, run.log)
        end = measure.reap(proc, run.timeout())
        sample = Sample(start, time.monotonic_ns(), end.cpu_s, end.peak_rss_mb, True)
        if end.code != 0 or end.timed_out:
            sample.ok = False
            sample.detail = f"traced pass exit {end.code}: {measure.tail(run.log)}"
            return sample, {}
        verify(sample)
        found = tracing.load(trace_dir, proc.pid)
        return sample, tracing.layer_metrics(found, sample.start_ns, sample.end_ns, JOBS)


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
class Figures(Workload):
    module = "repro.harness"
    reference_key = "figures"

    def args(self, run: Run, cache: Path, out: Path) -> List[str]:
        return [
            "--jobs", str(JOBS),
            "--n-insts", str(run.sizes.figures_n_insts),
            "--seed", str(run.seed),
            "--cache-dir", str(cache),
            "--out", str(out),
            *run.sizes.figures,
        ]

    def setup_source(self, run: Run) -> str:
        return (
            "import repro.harness.cli\n"
            "from repro.harness.engine import Engine, code_salt\n"
            "from repro.harness.figures import SPECS\n"
            "code_salt()\n"
            f"Engine(n_insts={run.sizes.figures_n_insts}, seed={run.seed})"
            f".plan([SPECS[n] for n in {list(run.sizes.figures)!r}])\n"
        )

    def cache(self, run: Run) -> Path:
        """The cache directory an operation runs on."""
        raise NotImplementedError

    def run_cli(self, run: Run, cache: Path) -> Sample:
        out = run.fresh("out")
        sample = run.timed(["-m", self.module, *self.args(run, cache, out)])
        self.record(run, sample, tree_digest(out))
        return sample

    def op(self, run: Run, index: int) -> Sample:
        return self.run_cli(run, self.cache(run))

    def traced(self, run: Run) -> Tuple[Sample, Dict[str, float]]:
        out = run.fresh("out")
        return self.traced_cli(
            run,
            self.args(run, self.cache(run), out),
            lambda sample: self.record(run, sample, tree_digest(out)),
        )


class FiguresCold(Figures):
    name = "figures-cold"
    why = (
        "paper figures regenerated on an empty cache: trace generation, "
        "priming, the event loop, the pool and the serial reduce all count"
    )

    def cache(self, run: Run) -> Path:
        return run.fresh("cache")  # empty for every operation


class FiguresWarm(Figures):
    name = "figures-warm"
    why = (
        "the same figures on the cache a cold run filled: nothing simulates, "
        "so a simulator optimisation must leave it unchanged"
    )

    def prepare(self, run: Run) -> None:
        """Fill the cache with one cold run; its artifacts are the digest
        every warm operation must reproduce."""
        sample = self.run_cli(run, run.fresh("cache"))
        if not sample.ok:
            raise BenchError(f"filling the cache failed: {sample.detail}")

    def cache(self, run: Run) -> Path:
        return run.work / "cache"


# ----------------------------------------------------------------------
# Design sweep
# ----------------------------------------------------------------------
class SweepCold(Workload):
    name = "sweep-cold"
    why = (
        "a design-space campaign of short points on an empty cache: fixed "
        "per-point cost and the shard, frontier and lockfile work count"
    )
    module = "repro.explore"
    reference_key = "sweep"

    def args(self, run: Run, cache: Path, campaign: Path) -> List[str]:
        return [
            "--spec", str(run.bench / run.sizes.sweep_spec),
            "--seed", str(run.seed),
            "--jobs", str(JOBS),
            "--cache-dir", str(cache),
            "--campaign-dir", str(campaign),
        ]

    def setup_source(self, run: Run) -> str:
        return (
            "import repro.explore.cli\n"
            "from repro.explore.spec import expand, load_spec\n"
            "from repro.harness.engine import code_salt, point_cache_key\n"
            "salt = code_salt()\n"
            f"spec = load_spec({str(run.bench / run.sizes.sweep_spec)!r})"
            f".with_overrides(seed={run.seed})\n"
            "[point_cache_key(p, salt) for p in expand(spec).points]\n"
        )

    def record_lockfile(self, run: Run, sample: Sample, campaign: Path) -> None:
        if sample.ok:
            lock = json.loads((campaign / "lockfile.json").read_text())
            self.record(run, sample, lock["results_digest"])

    def op(self, run: Run, index: int) -> Sample:
        cache, campaign = run.fresh("cache"), run.fresh("campaign")
        sample = run.timed(["-m", self.module, *self.args(run, cache, campaign)])
        self.record_lockfile(run, sample, campaign)
        return sample

    def finish(self, run: Run, samples: List[Sample]) -> None:
        """Replay the newest rep's lockfile: byte-identical, all cached."""
        if not samples[-1].ok:
            return
        replay = run.timed([
            "-m", self.module,
            "--frozen", str(run.work / "campaign" / "lockfile.json"),
            "--expect-cached",
            "--cache-dir", str(run.work / "cache"),
        ])
        if not replay.ok:
            samples[-1].ok = False
            samples[-1].detail = f"frozen replay failed: {replay.detail}"

    def traced(self, run: Run) -> Tuple[Sample, Dict[str, float]]:
        cache, campaign = run.fresh("cache"), run.fresh("campaign")
        return self.traced_cli(
            run,
            self.args(run, cache, campaign),
            lambda sample: self.record_lockfile(run, sample, campaign),
        )


# ----------------------------------------------------------------------
# Serve after an edit
# ----------------------------------------------------------------------
LEDGER = "generations.jsonl"
EDITED = Path("repro") / "schemes" / "catalog.py"
EDITED_MODULE = "repro.schemes.catalog"
#: The phases the serve ledger times, in the order a generation runs them.
SERVE_PHASES = ("plan", "classify", "simulate", "reduce", "publish")


def ledger_entries(path: Path) -> List[dict]:
    """Complete (newline-terminated) ledger lines, parsed."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return []
    return [json.loads(line) for line in text.split("\n")[:-1] if line.strip()]


class ServeEdit(Workload):
    name = "serve-edit"
    why = (
        "edit-to-result latency of the serve daemon: a comment edit to a "
        "salted module makes every point dirty on spawn-fresh workers"
    )

    reference_key = "serve"

    def __init__(self) -> None:
        self.proc = None
        self.exits: List[measure.Exit] = []
        self.edits = 0

    def args(self, run: Run, out: Path) -> List[str]:
        args = [
            "serve", *run.sizes.serve,
            "--jobs", str(JOBS),
            "--interval", "0.2",
            "--seed", str(run.seed),
            "--out", str(out),
            "--cache-dir", str(run.work / "serve-cache"),
        ]
        if run.sizes.serve_n_insts is not None:
            args += ["--n-insts", str(run.sizes.serve_n_insts)]
        return args

    def setup_source(self, run: Run) -> str:
        n_insts = run.sizes.serve_n_insts
        return (
            "from repro.harness.serve import ResultsServer, ServeConfig\n"
            "from repro.harness.engine import Engine, code_salt\n"
            "from repro.harness.figures import SPECS\n"
            "salt = code_salt()\n"
            f"names = {list(run.sizes.serve)!r}\n"
            f"ResultsServer(ServeConfig(names=names, out_dir={str(run.work / 'setup-out')!r}, "
            f"cache_dir={str(run.work / 'setup-cache')!r}, jobs={JOBS}, "
            f"n_insts={n_insts!r}, seed={run.seed}))\n"
            f"Engine(n_insts={n_insts!r}, seed={run.seed}, salt=salt)"
            ".plan([SPECS[n] for n in names])\n"
        )

    def start(self, run: Run, out: Path, trace_dir: Optional[Path] = None) -> dict:
        """Start a daemon over the copy of ``src/``; returns generation 0."""
        if trace_dir is None:
            cmd = [PY, "-m", "repro.harness", *self.args(run, out)]
        else:
            cmd = [PY, str(run.bench / "spans.py"), str(trace_dir), "repro.harness",
                   *self.args(run, out)]
        self.ledger = out / LEDGER
        self.proc = measure.spawn(cmd, self.env, run.work, run.log)
        self.entries = 1
        entry = self.wait_entry(run, 1)
        if entry is None:
            raise BenchError(f"serve generation 0 never landed: {measure.tail(run.log)}")
        return entry

    def wait_entry(self, run: Run, n: int) -> Optional[dict]:
        """Block until the ledger holds *n* entries; None if the daemon
        died or the operation timed out."""
        deadline = time.perf_counter() + run.timeout()
        while time.perf_counter() < deadline:
            entries = ledger_entries(self.ledger)
            if len(entries) >= n:
                return entries[n - 1]
            end = measure.poll_exit(self.proc)
            if end is not None:
                self.exits.append(end)
                self.proc = None
                return None
            time.sleep(0.005)
        return None

    def edit_and_wait(self, run: Run) -> Tuple[int, int, Optional[dict]]:
        """Append a distinct comment to the copy's scheme catalog and wait
        for the generation it triggers: ``(start_ns, end_ns, entry)``."""
        self.edits += 1
        start = time.monotonic_ns()
        with open(self.src / EDITED, "a") as fh:
            fh.write(f"# benchmark edit {self.edits}\n")
        self.entries += 1
        entry = self.wait_entry(run, self.entries)
        return start, time.monotonic_ns(), entry

    def check_entry(self, sample: Sample, entry: Optional[dict]) -> None:
        if entry is None:
            sample.ok, sample.detail = False, "no ledger entry: daemon died or timed out"
            return
        problems = []
        if not entry["dirty"] == entry["executed"] == entry["planned"] > 0:
            problems.append(
                f"dirty {entry['dirty']} / executed {entry['executed']} / "
                f"planned {entry['planned']} differ"
            )
        if entry["artifacts_digest"] != self.digest:
            problems.append(f"artifacts digest {entry['artifacts_digest']} != {self.digest}")
        if EDITED_MODULE not in entry["changed_modules"]:
            problems.append(f"edit not seen: changed {entry['changed_modules']}")
        if problems:
            sample.ok, sample.detail = False, "; ".join(problems)

    def prepare(self, run: Run) -> None:
        self.src = run.work / "src"
        shutil.copytree(
            run.root / "src", self.src, ignore=shutil.ignore_patterns("__pycache__")
        )
        self.env = dict(run.env, PYTHONPATH=str(self.src))
        entry = self.start(run, run.fresh("serve-out"))
        self.digest = entry["artifacts_digest"]
        run.compare_reference(self.reference_key, self.digest)

    def op(self, run: Run, index: int) -> Sample:
        pid = self.proc.pid
        cpu0 = measure.proc_cpu_s(pid)
        start, end, entry = self.edit_and_wait(run)
        cpu = measure.proc_cpu_s(pid) - cpu0 if self.proc is not None else 0.0
        sample = Sample(start, end, cpu, 0.0, True)
        self.check_entry(sample, entry)
        return sample

    def stop(self) -> None:
        if self.proc is not None:
            self.exits.append(measure.stop(self.proc, 30.0))
            self.proc = None

    def close(self, run: Run) -> None:
        self.stop()

    def rss_samples(self, samples: List[Sample]) -> List[float]:
        return [end.peak_rss_mb for end in self.exits[:1]]

    def traced(self, run: Run) -> Tuple[Sample, Dict[str, float]]:
        self.stop()
        trace_dir = run.fresh("trace")
        self.start(run, run.fresh("serve-out-traced"), trace_dir)
        pid = self.proc.pid
        start, end, entry = self.edit_and_wait(run)
        sample = Sample(start, end, 0.0, 0.0, True)
        self.check_entry(sample, entry)
        self.stop()
        if not sample.ok:
            return sample, {}
        found = tracing.load(trace_dir, pid)
        layers = tracing.layer_metrics(found, sample.start_ns, sample.end_ns, JOBS)
        phases = entry["phase_seconds"]
        layers.update({f"serve.{p}_s": float(phases.get(p, 0.0)) for p in SERVE_PHASES})
        layers["serve.detect_s"] = sample.wall_s - sum(phases.values())
        layers["serve.dirty"] = float(entry["dirty"])
        return sample, layers


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FiguresCold, FiguresWarm, SweepCold, ServeEdit)
}
