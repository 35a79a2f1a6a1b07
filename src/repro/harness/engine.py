"""The experiment executor: plan once, dedupe, fan out, cache forever.

Given a set of :class:`~repro.harness.spec.ExperimentSpec`\\ s the
engine

1. *plans* every experiment's point grid and takes the union --
   duplicated points (every normalized-slowdown figure shares its
   baseline runs) are simulated exactly once;
2. serves points from a content-addressed on-disk cache under
   ``.repro-cache/``, keyed by a stable hash of the point, the machine
   and scheme configuration, and a code-version salt over the simulator
   sources -- a warm rerun of ``python -m repro.harness`` does zero
   simulations, and neither parses (:class:`ScanStore`) nor imports
   the simulator;
3. fans cache misses out over a process pool (``--jobs N``) in
   per-app batches (:func:`form_batches`); workers regenerate traces
   from the point key -- once per batch for points that share one, or
   not at all when a :class:`TraceStore` holds them -- so only compact
   :class:`~repro.arch.metrics.SimStats` metric sets cross process
   boundaries; a run that never filled a queue also serves the
   batch's points that differ from it only in larger sizes of that
   queue (:func:`_execute_batch`);
4. re-runs each experiment's reducer against the resolved results and
   enforces its expected-shape assertions.

:meth:`Engine.run` is the one driver of these steps: the harness CLI
and each generation of the long-lived results service
(:mod:`repro.harness.serve`) call it, and the explorer's shards run
its resolve step (:func:`resolve_points`).  Each leaves one
:class:`RunInfo`: points planned, served from the cache and simulated,
simulator runs, and seconds per phase.  The same pool helper
(:func:`parallel_map`) backs the fault campaign's trial fan-out in
:mod:`repro.faults.campaign`; the salt machinery
(:func:`compute_salt_recipe`, :func:`code_salt`) is what the results
service watches.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import marshal
import os
import sys
from bisect import bisect_right
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.metrics import SimStats
from repro.perf.timers import PhaseTimer
from repro.harness.report import FigureResult
from repro.harness.spec import (
    ExperimentSpec,
    MulticorePoint,
    PlanContext,
    Point,
    ResolvedResolver,
    SimPoint,
    validate_result,
)
from repro.workloads.profiles import PROFILES

#: Default on-disk cache location, relative to the working directory.
CACHE_DIR = ".repro-cache"

#: The modules a simulation point actually executes: trace generation,
#: the timing simulator, and the scheme catalog.  The cache salt is the
#: hash of the module-level import closure of these entries (within
#: ``repro.``), so editing the fault engine, the IR interpreter, the
#: recovery checker, or the harness itself does not invalidate a single
#: cached point.
_SALT_ENTRY_MODULES = (
    "repro.arch.machine",
    "repro.arch.multicore",
    "repro.schemes.catalog",
    "repro.workloads.profiles",
    "repro.workloads.synthetic",
)

_code_salt: Optional[str] = None
_salt_recipe: Optional[Dict[str, object]] = None


def _src_root() -> str:
    import repro

    return os.path.dirname(os.path.dirname(repro.__file__))


def module_file(name: str) -> Optional[Path]:
    """Source file for dotted module *name*, or None if it is not ours.

    String paths, not ``pathlib``: a salt walk resolves every imported
    name this way, most of them not modules.
    """
    base = os.path.join(_src_root(), *name.split("."))
    for file in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(file):
            return Path(file)
    return None


def _is_type_checking_test(test: ast.expr) -> bool:
    """Is this ``if`` guard a ``TYPE_CHECKING`` (or ``typing.TYPE_CHECKING``)
    gate?  Its body never executes at runtime."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_candidates(source: bytes) -> List[Tuple[str, Optional[str]]]:
    """``repro.*`` imports at module level, as ``(module, name)`` pairs.

    ``import repro.x`` gives ``("repro.x", None)``; ``from repro.pkg
    import name`` gives ``("repro.pkg", "name")``, which
    :func:`compute_salt_recipe` resolves against the tree.
    Walks only module-level statements (recursing through top-level
    ``if``/``try`` blocks), so lazy function-level imports stay out of
    the salt.
    Two import styles get special care so the closure matches what
    actually *runs* (tested with planted fixture modules):

    - ``if TYPE_CHECKING:`` bodies are skipped -- those imports exist
      only for the type checker, so hashing them would invalidate
      caches for edits no simulation can observe.  The ``else`` branch,
      which does execute, is still walked.
    - ``try: import x / except ImportError:`` arms are all walked -- an
      optional import is a real runtime dependency whenever the module
      is present, and silently dropping it would leave stale caches
      live after an edit.
    """
    found: List[Tuple[str, Optional[str]]] = []

    def visit(stmts) -> None:
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro."):
                        found.append((alias.name, None))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and node.module.startswith("repro"):
                    for alias in node.names:
                        found.append((node.module, alias.name))
            elif isinstance(node, ast.If):
                if not _is_type_checking_test(node.test):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)

    visit(ast.parse(source).body)
    return found


#: File sha256 -> :func:`_import_candidates` of those bytes: a process
#: parses each version of a file once, however often the recipe is
#: recomputed (the serve loop does so on every poll).
_CANDIDATES_BY_DIGEST: Dict[str, List[Tuple[str, Optional[str]]]] = {}

#: Digest of the scanner's own bytecode.  A stored scan is a function of
#: the file's bytes *and* of the code that scanned them, so an entry
#: written by another version of the walk (or another interpreter's
#: bytecode) reads as a miss.  Marshal format 2 writes no
#: back-references, so the bytes do not depend on reference counts.
_SCANNER = hashlib.sha256(
    marshal.dumps((_is_type_checking_test.__code__, _import_candidates.__code__), 2)
).hexdigest()


class ScanStore:
    """:func:`_import_candidates` results on disk, one file per file version.

    Content-addressed by the scanned file's sha256, so a second process
    on the same result cache directory parses nothing it has parsed
    before.  Each entry records the digest and the scanner it was
    written under, and :meth:`get` serves only an entry whose digest is
    the one asked for and whose scanner is this one: a file copied from
    another digest, or written by another version of the walk, is a
    miss, as is a missing or torn file.  Writes are atomic; a write
    that fails costs only a parse in the next process.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> Optional[List[Tuple[str, Optional[str]]]]:
        try:
            with open(self._path(digest)) as fh:
                data = json.load(fh)
            if data["digest"] != digest or data["scanner"] != _SCANNER:
                return None
            return [(module, name) for module, name in data["candidates"]]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, digest: str, candidates: List[Tuple[str, Optional[str]]]) -> None:
        payload = {"candidates": candidates, "digest": digest, "scanner": _SCANNER}
        try:
            _write_json(self._path(digest), payload)
        except OSError:
            pass  # the store is a memo: the next process parses again


def _write_atomic(path: Path, mode: str, write: Callable) -> None:
    """Call *write* on a pid-suffixed temp file opened with *mode*, then
    move it to *path*: readers never see the entry torn."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # The whole name: files of one stem in one directory never share one.
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, mode) as fh:
        write(fh)
    tmp.replace(path)


def _write_json(path: Path, payload: dict) -> None:
    """Write *payload* to *path* atomically (``dumps`` is C; ``dump`` is not)."""
    _write_atomic(path, "w", lambda fh: fh.write(json.dumps(payload, sort_keys=True)))


#: The trace generator's entry module.  A generated trace is a function
#: of its arguments and of this module's import closure
#: (``repro.workloads.synthetic``, ``repro.workloads.profiles`` and
#: ``repro.arch.trace``), so :func:`trace_salt` hashes only that.
_TRACE_ENTRY_MODULES = ("repro.workloads.synthetic",)


def trace_salt(scans: Optional[ScanStore] = None) -> str:
    """The generator salt, re-derived from the files on disk now."""
    return recipe_salt(compute_salt_recipe(_TRACE_ENTRY_MODULES, scans))


class TraceStore:
    """Generated packed traces on disk, one file per trace.

    An entry's key is the sha256 of the generator salt *salt* (see
    :func:`trace_salt`) and the trace's arguments ``(app, n_insts,
    seed, instrument)``, so an edit outside the generator's closure
    keeps every key: a worker whose trace is stored reads it back
    instead of generating it, and never imports NumPy.  An entry is a
    header (format tag with the byte order, key, event count) followed
    by the codes as ASCII bytes and the addresses as int64, about nine
    bytes per event.  :meth:`get` serves only a complete entry written
    under the key it is asked for: a missing, torn or foreign entry is a
    miss.  Writes are atomic; a write that fails costs only a
    regeneration.
    """

    _FORMAT = f"repro-trace-1-{sys.byteorder}".encode()

    def __init__(self, root: Path, salt: str) -> None:
        self.root = Path(root)
        self.salt = salt

    def key(self, app: str, n_insts: int, seed: int, instrument: Optional[str]) -> str:
        canonical = json.dumps([self.salt, app, n_insts, seed, instrument])
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.trace"

    def _header(self, key: str, n_events: int) -> bytes:
        return b"%s\0%s\0%d\0" % (self._FORMAT, key.encode(), n_events)

    def get(self, key: str):
        """The stored :class:`~repro.arch.trace.PackedTrace`, or None."""
        from array import array

        from repro.arch.trace import PackedTrace

        try:
            data = self._path(key).read_bytes()
            form, stored_key, count, body = data.split(b"\0", 3)
            n_events = int(count)
            if (
                form != self._FORMAT
                or stored_key != key.encode()
                or len(body) != 9 * n_events
            ):
                return None
            addrs = array("q")
            addrs.frombytes(memoryview(body)[n_events:])
            return PackedTrace(body[:n_events].decode("ascii"), addrs.tolist())
        except (OSError, ValueError):
            return None  # missing, torn or corrupt entry: regenerate

    def put(self, key: str, trace) -> None:
        from array import array

        def write(fh) -> None:
            fh.write(self._header(key, len(trace)))
            fh.write(trace.codes.encode("ascii"))
            fh.write(array("q", trace.addrs))

        try:
            _write_atomic(self._path(key), "wb", write)
        except OSError:
            pass  # the store is a memo: the next worker generates again


def _candidates(
    source: bytes, digest: str, scans: Optional[ScanStore]
) -> List[Tuple[str, Optional[str]]]:
    """:func:`_import_candidates` of *source* (sha256 *digest*), parsed
    only if neither the process memo nor the store *scans* holds it."""
    found = _CANDIDATES_BY_DIGEST.get(digest)
    if found is None:
        found = scans.get(digest) if scans is not None else None
        if found is None:
            found = _import_candidates(source)
            if scans is not None:
                scans.put(digest, found)
        _CANDIDATES_BY_DIGEST[digest] = found
    return found


def compute_salt_recipe(
    entries: Sequence[str] = _SALT_ENTRY_MODULES,
    scans: Optional[ScanStore] = None,
) -> Dict[str, object]:
    """Walk the module closure of *entries* and hash every file: uncached.

    The pure computation behind :func:`salt_recipe`.  The results
    service (:mod:`repro.harness.serve`) calls this on every poll tick
    to re-derive the closure from what is on disk *now* -- the cached
    :func:`salt_recipe` would keep serving the boot-time tree forever.
    Only the parse is memoised, by content: in the process, and across
    processes in *scans* when the caller owns a result cache directory.
    Resolution is not, because whether ``from pkg.mod import name``
    names a module depends on other files: it resolves to
    ``pkg.mod.name`` when that is itself a module, else to ``pkg.mod``
    (e.g. a package ``__init__`` re-export, whose own imports are then
    followed).
    *entries* is parameterized so tests can plant fixture modules and
    assert exactly which import styles land in the recipe.
    """
    modules: Dict[str, str] = {}
    queue = list(entries)
    while queue:
        name = queue.pop()
        if name in modules:
            continue
        path = module_file(name)
        if path is None:
            continue
        source = path.read_bytes()
        digest = modules[name] = hashlib.sha256(source).hexdigest()
        for module, attr in _candidates(source, digest, scans):
            sub = f"{module}.{attr}"
            queue.append(sub if attr and module_file(sub) else module)
    return {
        "entries": sorted(entries),
        "modules": {name: modules[name] for name in sorted(modules)},
    }


def recipe_salt(recipe: Dict[str, object]) -> str:
    """The code salt for a given recipe: digest of its canonical JSON."""
    canonical = json.dumps(recipe, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def salt_recipe(scans: Optional[ScanStore] = None) -> Dict[str, object]:
    """What the cache salt hashes, as data (recorded in lockfiles).

    ``{"entries": [...], "modules": {name: sha256}}``
    -- the dependency-sliced module set a simulation point executes,
    with one content hash per module file.  Deterministic for a given
    tree; :func:`code_salt` is the digest of this recipe's canonical
    JSON form.  Cached after the first call for the life of the
    process (the serve daemon re-reads the tree with
    :func:`compute_salt_recipe`).  *scans* is the caller's scan store,
    if it owns a result cache directory.
    """
    global _salt_recipe
    if _salt_recipe is None:
        _salt_recipe = compute_salt_recipe(scans=scans)
    return _salt_recipe


def code_salt(scans: Optional[ScanStore] = None) -> str:
    """Hash of the source modules a simulation result depends on.

    Editing the simulator, the workload generator, or the scheme
    catalog changes the salt and invalidates the whole cache; editing
    the harness, the fault engine, or the compiler/IR stack does not --
    see :func:`salt_recipe` for exactly what is hashed.
    """
    global _code_salt
    if _code_salt is None:
        _code_salt = recipe_salt(salt_recipe(scans=scans))
    return _code_salt


#: ``repr`` of a ``Scheme`` or ``MachineConfig`` -> its ``asdict``.
_CONFIG_DICTS: Dict[str, dict] = {}


def _point_dict(point: Point) -> dict:
    """``dataclasses.asdict(point)``, with one ``asdict`` per distinct config.

    A point's ``Scheme`` and ``MachineConfig`` dicts are memoised by the
    config's ``repr``, which shows every field and tells ``1``, ``1.0``
    and ``True`` apart: configs that compare equal can still serialise
    differently, so the config itself is not an exact key.  The other
    fields are immutable (strings, ints, tuples of strings) and go in
    as they are.  The dicts are shared: callers may only read them.
    """
    out = {}
    for field in dataclasses.fields(point):
        value = getattr(point, field.name)
        if dataclasses.is_dataclass(value):
            rendering = repr(value)
            cached = _CONFIG_DICTS.get(rendering)
            if cached is None:
                cached = _CONFIG_DICTS[rendering] = dataclasses.asdict(value)
            value = cached
        out[field.name] = value
    return out


def point_cache_key(point: Point, salt: Optional[str] = None) -> str:
    """Stable content hash of a point plus the code-version salt."""
    payload = {
        "kind": type(point).__name__,
        "point": _point_dict(point),
        "salt": code_salt() if salt is None else salt,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Point execution (runs in worker processes: must stay top-level).
# ----------------------------------------------------------------------
def _trace_key(point: SimPoint) -> tuple:
    """What a single-core point's trace is a pure function of."""
    return ("trace", point.app, point.n_insts, point.seed, point.instrument)


def _batch_memo(points: Sequence[Point]) -> Dict[tuple, list]:
    """A batch-local memo holding only the traces its points share.

    Every trace key that more than one single-core point of the batch
    needs maps to ``[uses_left, trace]``, with the trace built by the
    first of them and dropped after the last; a key only one point
    needs is absent, so that point builds its own exactly as an
    unbatched run does.
    """
    uses = Counter(
        _trace_key(point) for point in points if isinstance(point, SimPoint)
    )
    return {key: [n, None] for key, n in uses.items() if n > 1}


def _shared(batch: Optional[Dict[tuple, list]], key: tuple, make: Callable):
    """*make()* built once per *batch* for a key it shares, else None."""
    entry = batch.get(key) if batch else None
    if entry is None:
        return None
    if entry[1] is None:
        entry[1] = make()
    _release(batch, key)
    return entry[1]


def _release(batch: Optional[Dict[tuple, list]], key: tuple) -> None:
    """Count one use of *batch*'s shared *key*; free it after the last."""
    entry = batch.get(key) if batch else None
    if entry is not None:
        entry[0] -= 1
        if entry[0] == 0:
            del batch[key]


def _trace(
    app: str, n_insts: int, seed: int, instrument: Optional[str],
    traces: Optional[TraceStore] = None,
):
    """The packed trace of one core: read from *traces* if it holds it,
    else generated (and then stored there)."""
    if traces is not None:
        key = traces.key(app, n_insts, seed, instrument)
        trace = traces.get(key)
        if trace is not None:
            return trace
    # NumPy loads with the first generated trace, never on a hit.
    from repro.workloads.synthetic import generate_trace

    trace = generate_trace(PROFILES[app], n_insts, seed, instrument=instrument, packed=True)
    if traces is not None:
        traces.put(key, trace)
    return trace


def compute_point(
    point: Point,
    batch: Optional[Dict[tuple, list]] = None,
    traces: Optional[TraceStore] = None,
) -> SimStats:
    """Regenerate (or read) the trace(s) for *point* and simulate it.

    *batch* is the memo of the worker batch *point* belongs to (see
    :func:`_batch_memo`): a single-core point reuses the trace it
    shares with other points of the batch instead of rebuilding it.
    *traces* is a :class:`TraceStore` that traces are read from and
    written to.  A trace is a pure function of its key, so the stats
    are bit-identical either way.
    """
    # The simulator stack loads here, not with the engine, so a run
    # that simulates nothing never compiles it (DESIGN.md section 7e).
    from repro.arch.machine import TimingSimulator
    from repro.arch.multicore import simulate_multicore
    from repro.workloads.synthetic import prime_ranges

    # Packed traces feed the simulators' batched fast paths; the result
    # is value-identical to the legacy tuple lists (golden-pinned).
    if isinstance(point, MulticorePoint):
        core_traces = [
            _trace(app, point.n_insts, point.seed + i, point.instrument, traces)
            for i, app in enumerate(point.apps)
        ]
        prime = [r for app in point.prime_apps for r in prime_ranges(PROFILES[app])]
        mstats = simulate_multicore(
            core_traces, point.machine, point.scheme, point.n_cores, prime=prime
        )
        return mstats.merged()

    def make_trace():
        return _trace(point.app, point.n_insts, point.seed, point.instrument, traces)

    trace = _shared(batch, _trace_key(point), make_trace)
    if trace is None:
        trace = make_trace()
    sim = TimingSimulator(point.machine, point.scheme)
    sim.hier.prime(prime_ranges(PROFILES[point.app]))
    return sim.run(trace)


def _sibling_group(point: SimPoint) -> Tuple[tuple, Tuple[int, ...]]:
    """``(group, capacities)`` of a single-core *point*.  The points of a
    group share one trace and differ at most in their queue capacities
    (:func:`repro.arch.machine.sibling`): they are capacity siblings."""
    from repro.arch.machine import sibling

    rest, capacities = sibling(point.machine, point.scheme)
    return (_trace_key(point), rest), capacities


def _execute_batch(
    batch: List[Point], traces: Optional[TraceStore] = None
) -> Tuple[List[SimStats], int]:
    """Compute one worker batch; returns its stats and its simulator runs.
    The batch's memo dies with it.

    Each group of capacity siblings is walked in ascending capacity
    order, and a point is simulated only if no earlier run of its group
    serves it (:func:`repro.arch.machine.serves`).  A served point gets
    its own copy of the witness's stats: the object a cache read of the
    same entry returns.
    """
    from repro.arch.machine import serves

    memo = _batch_memo(batch) if len(batch) > 1 else None
    results: List[Optional[SimStats]] = [None] * len(batch)
    groups: Dict[tuple, List[Tuple[Tuple[int, ...], int]]] = {}
    n_runs = 0
    for index, point in enumerate(batch):
        if isinstance(point, MulticorePoint):
            results[index] = compute_point(point, traces=traces)
            n_runs += 1
        else:
            group, capacities = _sibling_group(point)
            groups.setdefault(group, []).append((capacities, index))
    for (trace_key, rest), members in groups.items():
        runs: List[tuple] = []  # (sibling, stats) of the group's runs
        for capacities, index in sorted(members):
            this = (rest, capacities)
            witness = next((s for ran, s in runs if serves(ran, s, this)), None)
            if witness is None:
                stats = compute_point(batch[index], batch=memo, traces=traces)
                runs.append((this, stats))
            else:
                _release(memo, trace_key)
                stats = SimStats.from_dict(witness.to_dict())
            results[index] = stats
        n_runs += len(runs)
    return results, n_runs


class WorkerCrash(RuntimeError):
    """A pool worker died before delivering its result (OOM-kill, segfault).

    Raised by :func:`parallel_map` after the pool has been shut down
    hard -- queued work cancelled, live workers terminated and reaped --
    so the caller never inherits orphaned processes.  Results that
    completed before the crash were already flushed through
    ``on_result``.
    """


def _apply_chunk(fn: Callable, chunk: List) -> List:
    """Run one unordered-path chunk inside a worker process."""
    return [fn(task) for task in chunk]


def _shutdown_hard(executor) -> None:
    """Cancel queued work, terminate live workers, and reap them all."""
    # Snapshot the worker processes first: shutdown() clears the dict.
    procs = list((getattr(executor, "_processes", None) or {}).values())
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    # Wait for the executor's manager thread, which reaps the workers
    # too: a join racing its waitpid can return with the worker still
    # counted alive, so ours run only once it has exited.
    executor.shutdown(wait=True, cancel_futures=True)
    for proc in procs:
        proc.join(timeout=5.0)


def parallel_map(
    fn: Callable,
    tasks: Sequence,
    jobs: int = 1,
    chunksize: int = 1,
    ordered: bool = True,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Map *fn* over *tasks*, optionally across a process pool.

    ``jobs <= 1`` (or a single task) runs inline, which keeps tracebacks
    readable and avoids pool startup for trivial work.  ``ordered=False``
    trades result order for scheduling slack (the fault campaign
    aggregates order-insensitively).

    ``on_result(index, result)`` fires as each result lands (inline and
    pool paths alike), with *index* the task's position in *tasks* --
    callers flush partial results through it, so an interrupt or worker
    crash mid-batch loses only in-flight work.  The pool shuts down
    *cleanly* on any failure: KeyboardInterrupt and worker death both
    cancel queued futures, terminate and reap every worker process (no
    orphans), then re-raise -- worker death as :class:`WorkerCrash`.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            result = fn(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results
    # The pool stack loads here, in the parent and before any fork, so
    # runs that never pool (a warm cache, --jobs 1) never import it.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(max_workers=jobs)
    results: List = []
    try:
        if ordered:
            for index, result in enumerate(
                executor.map(fn, tasks, chunksize=chunksize)
            ):
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
        else:
            step = max(1, chunksize)
            futures = {
                executor.submit(_apply_chunk, fn, tasks[start : start + step]): start
                for start in range(0, len(tasks), step)
            }
            for future in as_completed(futures):
                start = futures[future]
                for offset, result in enumerate(future.result()):
                    results.append(result)
                    if on_result is not None:
                        on_result(start + offset, result)
    except BaseException as exc:
        _shutdown_hard(executor)
        if isinstance(exc, BrokenProcessPool):
            raise WorkerCrash(
                f"a worker process died mid-batch ({len(results)} of "
                f"{len(tasks)} results completed and flushed)"
            ) from exc
        raise
    executor.shutdown(wait=True)
    return results


#: Batches formed per worker.  Fewer, larger batches share more traces
#: and primed states, but the pool balances load only across batches
#: and a worker crash loses its whole batch.  Measured on a shared
#: 2-vCPU host at ``--jobs 2`` with 1, 2, 4 and 8 batches per worker:
#: ``sweep-cold`` (100 points of 4 apps) took 0.59 / 0.62 / 0.61 /
#: 0.64 s (median of 3, within run-to-run noise), the default figure
#: grid (1457 points) 34 / 40 / 39 / 39 s (mean of 2).  Sharing is
#: mostly won by 4 -- the sweep generates 12 traces and primes 8 times,
#: against 8 and 4 at best and 100 each unbatched -- so 4 keeps that
#: while a crash loses at most a quarter of a worker's share.
BATCHES_PER_JOB = 4


def form_batches(
    misses: Sequence[Tuple[str, Point]], jobs: int = 1
) -> List[List[int]]:
    """Group *misses* into worker batches, as lists of indices.

    Single-core points of one app are cut, in plan order, into
    near-equal chunks of at most ``ceil(len(misses) / (BATCHES_PER_JOB
    * jobs))`` points, except that a group of capacity siblings
    (:func:`_sibling_group`) is never split: it joins whole the chunk
    its first point falls in.  A multicore point (its per-core traces
    barely repeat) is a batch of its own.
    """
    cap = -(-len(misses) // (BATCHES_PER_JOB * max(1, jobs)))
    batches: List[List[int]] = []
    by_app: Dict[str, Dict[tuple, List[int]]] = {}
    for index, (_key, point) in enumerate(misses):
        if isinstance(point, MulticorePoint):
            batches.append([index])
        else:
            groups = by_app.setdefault(point.app, {})
            groups.setdefault(_sibling_group(point)[0], []).append(index)
    for groups in by_app.values():
        total = sum(map(len, groups.values()))
        n_chunks = -(-total // cap)
        size, extra = divmod(total, n_chunks)
        # Where each chunk ends: the first `extra` hold size + 1 points.
        ends = [(k + 1) * size + min(k + 1, extra) for k in range(n_chunks)]
        chunks: List[List[int]] = [[] for _ in range(n_chunks)]
        start = 0
        for group in groups.values():
            chunks[bisect_right(ends, start)].extend(group)
            start += len(group)
        batches.extend(chunk for chunk in chunks if chunk)
    return batches


def classify_points(
    tasks: Sequence[Tuple[str, Point]], cache
) -> Tuple[Dict[Point, SimStats], List[Tuple[str, Point]]]:
    """Look every ``(cache_key, point)`` task up in *cache* once.

    Returns ``({point: stats}, misses)``: the results the cache served,
    and the tasks it did not, in plan order.
    """
    hits: Dict[Point, SimStats] = {}
    misses: List[Tuple[str, Point]] = []
    for key, point in tasks:
        stats = cache.get(key)
        if stats is None:
            misses.append((key, point))
        else:
            hits[point] = stats
    return hits, misses


def compute_points(
    misses: Sequence[Tuple[str, Point]],
    cache,
    jobs: int = 1,
    traces: Optional[TraceStore] = None,
) -> Tuple[Dict[Point, SimStats], int]:
    """Simulate the ``(cache_key, point)`` *misses* and backfill *cache*.

    Misses run in the batches :func:`form_batches` cuts, one pool task
    each, where sibling runs serve what they can (:func:`_execute_batch`).
    A batch's results are flushed into *cache* together as the
    batch lands, in completion order, so an interrupt or worker crash
    keeps every completed batch and loses only the batches in flight.
    Workers read and write their traces in *traces*, if given.
    Returns ``({point: stats}, n_runs)``, the dict in the order of
    *misses* and *n_runs* the simulator runs the batches made.
    """
    if not misses:
        return {}, 0
    # Load the simulator stack and NumPy once, before the pool forks
    # workers that inherit them (multicore imports machine, caches,
    # queues and trace).  Simulator first: compiled after NumPy, it
    # left forked workers about 0.5 MB larger (sweep-cold peak RSS).
    # With a trace store NumPy loads only where a trace is missing.
    import repro.arch.multicore  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401
    if traces is None:
        import numpy  # noqa: F401

    batches = form_batches(misses, jobs)
    work = [[misses[i][1] for i in batch] for batch in batches]
    computed: Dict[int, SimStats] = {}
    runs = 0

    def _flush(index: int, landed: Tuple[List[SimStats], int]) -> None:
        nonlocal runs
        results, n_runs = landed
        for i, stats in zip(batches[index], results):
            key, point = misses[i]
            cache.put(key, point, stats)
            computed[i] = stats
        runs += n_runs

    parallel_map(
        partial(_execute_batch, traces=traces),
        work,
        jobs=jobs,
        ordered=False,
        on_result=_flush,
    )
    return {point: computed[i] for i, (_key, point) in enumerate(misses)}, runs


@dataclasses.dataclass
class RunInfo:
    """What one resolve did: the record the harness CLI's summary, the
    serve ledger and the explorer's shard lines all read."""

    planned: int = 0
    cached: int = 0
    simulated: int = 0
    #: Simulator runs: fewer than ``simulated`` when runs served
    #: capacity siblings (:func:`_execute_batch`).
    runs: int = 0
    #: Wall-clock seconds per phase: ``classify`` and ``simulate``, and
    #: under :meth:`Engine.run` also ``plan`` and ``reduce``.
    phases: PhaseTimer = dataclasses.field(default_factory=PhaseTimer)

    def describe(self) -> str:
        return (
            f"{self.planned} deduplicated points: {self.cached} cached, "
            f"{self.simulated} simulated in {self.runs} runs"
        )


def resolve_points(
    tasks: Sequence[Tuple[str, Point]],
    cache,
    jobs: int = 1,
    traces: Optional[TraceStore] = None,
    phases: Optional[PhaseTimer] = None,
) -> Tuple[Dict[Point, SimStats], RunInfo]:
    """Serve ``(cache_key, point)`` *tasks* from *cache*, simulating
    misses over the worker pool and backfilling the cache.

    The one point-execution path shared by :meth:`Engine.run` (the
    harness CLI and every serve generation) and the design-space
    campaign driver's shards (:mod:`repro.explore`).  Each cache entry
    is read once (:func:`classify_points`), and only the misses
    simulate (:func:`compute_points`), timed as the ``classify`` and
    ``simulate`` phases of *phases*.  Returns ``({point: stats},
    info)``.
    """
    phases = PhaseTimer() if phases is None else phases
    with phases.phase("classify"):
        resolved, misses = classify_points(tasks, cache)
    with phases.phase("simulate"):
        computed, runs = compute_points(misses, cache, jobs=jobs, traces=traces)
    resolved.update(computed)
    info = RunInfo(
        planned=len(tasks),
        cached=len(tasks) - len(misses),
        simulated=len(misses),
        runs=runs,
        phases=phases,
    )
    return resolved, info


# ----------------------------------------------------------------------
# Result caches
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed JSON store under *root* (one file per point).

    Each entry records the key it was written under, and :meth:`get`
    serves only an entry whose recorded key is the one asked for: a file
    copied or renamed from another key -- another point or another salt,
    since keys embed the salt -- reads as a miss.
    """

    def __init__(self, root: str = CACHE_DIR) -> None:
        self.root = Path(root)
        #: The salt walk's parses, beside the results they key.
        self.scans = ScanStore(self.root / "scan")

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimStats]:
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data["key"] != key:
                return None  # an entry written under another key
            return SimStats.from_dict(data["stats"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing or torn/corrupt entry: recompute

    def put(self, key: str, point: Point, stats: SimStats) -> None:
        payload = {
            "key": key,
            "kind": type(point).__name__,
            "point": _point_dict(point),
            "stats": stats.to_dict(),
        }
        _write_json(self._path(key), payload)  # concurrent runs never tear entries


class NullCache:
    """No caching (``--no-cache``)."""

    scans: Optional[ScanStore] = None

    def get(self, key: str) -> Optional[SimStats]:
        return None

    def put(self, key: str, point: Point, stats: SimStats) -> None:
        pass


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class Engine:
    """Plans, deduplicates, executes, caches, and reduces experiments."""

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        seed: int = 1,
        n_insts: Optional[int] = None,
        salt: Optional[str] = None,
        traces: Optional[TraceStore] = None,
    ) -> None:
        self.jobs = jobs
        self.cache = NullCache() if cache is None else cache
        self.seed = seed
        #: Global n_insts override; ``None`` uses each spec's default.
        self.n_insts = n_insts
        self._salt = salt
        #: Where workers read and write traces (the serve loop's
        #: :class:`TraceStore`); None generates every trace.
        self.traces = traces
        self.last_run: Optional[RunInfo] = None
        #: Scheme provenance per experiment name, from the last run.
        self.provenance: Dict[str, Dict[str, object]] = {}

    def context_for(self, spec: ExperimentSpec) -> PlanContext:
        return PlanContext(
            n_insts=self.n_insts if self.n_insts is not None else spec.default_n_insts,
            seed=self.seed,
        )

    def plan(self, specs: Sequence[ExperimentSpec]) -> List[Tuple[str, Point]]:
        """The deduplicated union grid as ``(cache_key, point)`` tasks.

        Shared points (baselines above all) appear exactly once; keys
        embed the engine's salt (or the current :func:`code_salt`).
        """
        points: Dict[Point, None] = {}
        for spec in specs:
            for point in spec.plan(self.context_for(spec)):
                points.setdefault(point, None)
        salt = self._salt if self._salt is not None else code_salt(scans=self.cache.scans)
        return [(point_cache_key(point, salt), point) for point in points]

    def reduce(
        self,
        specs: Sequence[ExperimentSpec],
        resolved: Dict[Point, SimStats],
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, FigureResult]:
        """Re-run every spec's reducer against *resolved* and validate."""
        say = progress if progress is not None else lambda _msg: None
        results: Dict[str, FigureResult] = {}
        for spec in specs:
            resolver = ResolvedResolver(self.context_for(spec), resolved)
            result = spec.build(resolver, self.context_for(spec))
            validate_result(spec, result)
            results[spec.name] = result
            self.provenance[spec.name] = {
                name: scheme.describe()
                for name, scheme in sorted(resolver.schemes_seen.items())
            }
            say(f"done: {spec.name}")
        return results

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, FigureResult]:
        """Run *specs* as one batch; returns ``{name: FigureResult}``.

        Planning takes the union of all experiments' grids, so shared
        points (baselines above all) execute exactly once per batch and
        at most once ever with a persistent cache.  The phases ``plan``,
        ``classify``, ``simulate`` and ``reduce`` are timed into
        :attr:`last_run`.
        """
        say = progress if progress is not None else lambda _msg: None
        phases = PhaseTimer()
        with phases.phase("plan"):
            tasks = self.plan(specs)
        resolved, info = resolve_points(
            tasks, self.cache, jobs=self.jobs, traces=self.traces, phases=phases
        )
        with phases.phase("reduce"):
            results = self.reduce(specs, resolved, progress=say)
        say(f"phases: {phases.format()}")
        self.last_run = info
        return results
