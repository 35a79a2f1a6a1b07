"""Process timing, host-speed metering, and the statistics reported.

Every timed operation runs in a child process started in its own
session, so the whole process tree can be signalled at once.  Wall time
is taken around the child's life.  CPU time and peak RSS come from
``os.wait4``: on Linux its resource usage covers the child plus every
descendant the child reaped (the harness reaps its pool workers), so
the CPU figure is the process tree's and the RSS figure is that of the
tree's largest process.

Times are ``time.monotonic_ns``, the clock the traced pass's spans use.

Only the standard library is used, so the benchmark runs before the
program under test is importable.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: How long a stopped process tree may take to disappear after SIGKILL.
_REAP_SECONDS = 5.0


@dataclass
class Sample:
    """One timed operation: what it cost and whether its output checked."""

    start_ns: int
    end_ns: int
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    detail: str = ""

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpeedMeter:
    """How fast the host's CPUs run, sampled while the benchmark runs.

    On a shared host each CPU's speed swings by up to 1.5x within
    seconds, as other tenants load its hardware siblings; over a run
    that moves medians by 10-30 %.  A background thread therefore
    times a fixed Python loop every :attr:`PERIOD_S`, on each CPU in
    turn, by its own thread CPU time -- so waiting for a CPU does not
    count, only how fast it runs.  :meth:`factor` converts host
    seconds in a time window into seconds at the reference speed, at
    which the loop takes :attr:`REF_NS`.  The loop costs about 3 % of
    one CPU.
    """

    LOOP = 20_000
    PERIOD_S = 0.05
    REF_NS = 1_500_000

    def __init__(self) -> None:
        #: ``(monotonic end ns, cpu, loop ns)`` per sample.
        self.samples: List[Tuple[int, int, int]] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        turn = 0
        while not self._stop.is_set():
            cpu = self.cpus[turn % len(self.cpus)]
            turn += 1
            os.sched_setaffinity(0, {cpu})  # this thread only
            start = time.thread_time_ns()
            acc = 0
            for i in range(self.LOOP):
                acc += i * i % 7
            self.samples.append((time.monotonic_ns(), cpu, time.thread_time_ns() - start))
            self._stop.wait(self.PERIOD_S)

    def factor(self, start_ns: int, end_ns: int, cpu: Optional[int] = None) -> float:
        """Reference seconds per host second over ``[start_ns, end_ns]``
        on *cpu* (default: all CPUs), from the samples taken in it, or
        the two nearest for a window shorter than the sampling period."""
        mine = [s for s in self.samples if cpu is None or s[1] == cpu]
        inside = [dt for t, _, dt in mine if start_ns <= t <= end_ns]
        if len(inside) < 2:
            middle = (start_ns + end_ns) // 2
            nearest = sorted(mine, key=lambda s: abs(s[0] - middle))[:2]
            inside = [dt for _, _, dt in nearest]
        return self.REF_NS / statistics.mean(inside) if inside else 1.0


@dataclass
class Exit:
    """How a child process ended."""

    code: int
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def _usage(rusage) -> tuple:
    return rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss / 1024.0


def kill_tree(pgid: int) -> None:
    """SIGKILL every process left in group *pgid* and wait until none is.

    Members that were reparented away from us cannot be waited for, so
    this polls for the group to empty.
    """
    deadline = time.monotonic() + _REAP_SECONDS
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def spawn(cmd: Sequence[str], env: Dict[str, str], cwd: Path, log: Path):
    """Start *cmd* as the leader of a new session; stdout is discarded and
    stderr goes to *log* for failure reports."""
    with open(log, "ab") as err:
        return subprocess.Popen(
            list(cmd),
            env=env,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )


def reap(proc: subprocess.Popen, timeout: float) -> Exit:
    """Wait for *proc* (killing its tree after *timeout* seconds) and
    collect its resource usage; no process of its group survives."""
    fired = threading.Event()

    def expire() -> None:
        fired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(timeout, 0.0), expire)
    watchdog.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_tree(proc.pid)
    cpu, rss = _usage(rusage)
    return Exit(proc.returncode, cpu, rss, fired.is_set())


def poll_exit(proc: subprocess.Popen) -> Optional[Exit]:
    """The exit of *proc* if it has already ended, without blocking."""
    pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
    if pid == 0:
        return None
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_tree(proc.pid)
    cpu, rss = _usage(rusage)
    return Exit(proc.returncode, cpu, rss, False)


def stop(proc: subprocess.Popen, timeout: float) -> Exit:
    """Interrupt a long-lived child's tree (SIGINT, as Ctrl-C would) and
    reap it; SIGKILL follows if it has not exited within *timeout*."""
    try:
        os.killpg(proc.pid, signal.SIGINT)
    except ProcessLookupError:
        pass
    return reap(proc, timeout)


def run_timed(
    cmd: Sequence[str], env: Dict[str, str], cwd: Path, log: Path, timeout: float
) -> Sample:
    """Run *cmd* to completion and time it; a nonzero exit or a timeout
    makes the sample fail."""
    start = time.monotonic_ns()
    proc = spawn(cmd, env, cwd, log)
    end = reap(proc, timeout)
    sample = Sample(start, time.monotonic_ns(), end.cpu_s, end.peak_rss_mb, True)
    if end.timed_out:
        sample.ok, sample.detail = False, f"timed out after {timeout:.0f}s"
    elif end.code != 0:
        sample.ok, sample.detail = False, f"exit {end.code}: {tail(log)}"
    return sample


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of *pid* and its reaped children, from
    ``/proc/<pid>/stat`` (utime, stime, cutime, cstime)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text.rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def tail(path: Path, lines: int = 3) -> str:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, count, and the raw samples."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worsening(base: float, new: float, better: str) -> float:
    """By what share of *base* the value moved in the bad direction
    (negative when it improved)."""
    moved = (new - base) if better == "lower" else (base - new)
    return moved / base


def verdict(
    base: Sequence[float], new: Sequence[float], bound: float, better: str
) -> str:
    """Classify *new* against *base* for one metric.

    ``worse beyond bound`` when the median worsened by more than the
    bound; ``better`` when the median improved by more than the base's
    own spread; ``within bound`` otherwise.  When either side's spread
    is wider than the bound the verdict is ``unresolved``, unless every
    new sample reads better (or, beyond the bound, worse) than every
    base sample.
    """
    lower = better == "lower"
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    all_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
    change = worsening(statistics.median(base), statistics.median(new), better)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "better"
        return "worse beyond bound" if all_worse and change > bound else "unresolved"
    if change > bound:
        return "worse beyond bound"
    if -change > spread(base):
        return "better"
    return "within bound"
