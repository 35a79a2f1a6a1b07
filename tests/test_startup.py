"""Start-up cost: a process imports only what it runs.

numpy is over half of ``import repro.harness.cli``, and only trace
generation (``repro.workloads.synthetic``) needs it, so it is imported
inside the functions that build arrays.  A warm figure run, which
simulates nothing, must never load it.  A cold run loads it once in the
parent before the worker pool forks, so forked workers inherit that
copy instead of each importing their own (DESIGN.md section 7e).

The same holds for the rest of the tree: the IR stack (through
``repro.workloads.adapter``) and the IR analyses are not re-exported
by their packages, and the process-pool
stack loads inside ``parallel_map``.  The simulator itself (machine,
caches, multicore, queues, trace and the trace generator) loads where a
point simulates, and ``compute_points`` imports it before the fork as
it does numpy -- unless the workers are spawned, as the serve daemon's
are: they inherit nothing, and one whose trace is stored never loads
numpy at all.  A warm run also parses no salted module: the salt
walk's parses are stored beside the results.

Each check runs in a fresh interpreter: the test process itself has
long since imported all of these.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_ARGS = ["--jobs", "2", "--n-insts", "1000", "fig13", "multicore", "hw", "fig18"]


def _python(code: str, cwd: Path, lines: int = 1) -> str:
    """Run *code* in a fresh interpreter; return its last stdout *lines*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return "\n".join(proc.stdout.strip().splitlines()[-lines:])


#: The simulator stack: loaded where points simulate, never by a run
#: that only reads cached results.
SIMULATOR = [
    "repro.arch.machine",
    "repro.arch.caches",
    "repro.arch.multicore",
    "repro.arch.queues",
    "repro.arch.trace",
    "repro.workloads.synthetic",
]

#: Modules a process must not load before it simulates, besides numpy.
#: The explorer also skips the IR analyses: it uses only
#: ``repro.analysis.pareto``.
UNUSED = {
    "repro.harness.cli": [
        "repro.ir",
        "repro.workloads.adapter",
        "multiprocessing",
        "concurrent.futures",
    ] + SIMULATOR,
}
UNUSED["repro.harness.serve"] = UNUSED["repro.harness.cli"]
UNUSED["repro.explore.cli"] = UNUSED["repro.harness.cli"] + ["repro.analysis.alias"]

LOADED = "print(sorted(set({!r}) & set(sys.modules)))"


@pytest.mark.parametrize("module", sorted(UNUSED))
def test_cli_import_does_not_load_numpy(module, tmp_path):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert _python(code, tmp_path) == "False"


@pytest.mark.parametrize("module", sorted(UNUSED))
def test_cli_import_leaves_unused_modules_out(module, tmp_path):
    code = f"import sys, {module}; " + LOADED.format(UNUSED[module])
    assert _python(code, tmp_path) == "[]"


def test_warm_run_does_not_load_numpy(tmp_path):
    """Nor anything else a fully cached run never uses, and it parses
    no source: the salt walk finds every parse in the cache directory."""
    cold = ["--cache-dir", "cache", "--out", "cold"]
    warm = ["--cache-dir", "cache", "--out", "warm"]
    run = "import sys; from repro.harness.cli import main; main({!r}); "
    _python(run.format(RUN_ARGS + cold), tmp_path)
    unused = ["numpy"] + UNUSED["repro.harness.cli"]
    count_parses = (
        "import ast; parses = []; real_parse = ast.parse; "
        "ast.parse = lambda *a, **k: parses.append(a) or real_parse(*a, **k); "
    )
    code = (
        count_parses + run.format(RUN_ARGS + warm) + "print(len(parses)); "
        + LOADED.format(unused)
    )
    assert _python(code, tmp_path, lines=2) == "0\n[]"
    names = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in names:
        cold_bytes = (tmp_path / "cold" / name).read_bytes()
        assert (tmp_path / "warm" / name).read_bytes() == cold_bytes, name


def test_compute_points_imports_numpy_before_forking(tmp_path):
    # Two apps make two batches, so both run in pool workers and the
    # parent never builds a trace itself: numpy and the simulator in
    # the parent's sys.modules can only come from the pre-fork import.
    code = """
import sys
from repro.arch import skylake_machine
from repro.harness.engine import NullCache, compute_points
from repro.harness.spec import SimPoint
from repro.schemes import cwsp
machine = skylake_machine(scaled=True)
misses = [
    (f"key-{app}", SimPoint(app, cwsp(), machine, None, 200, 1))
    for app in ("namd", "lbm")
]
preloaded = ["numpy"] + SIMULATOR
assert not set(preloaded) & set(sys.modules)
resolved = compute_points(misses, NullCache(), jobs=2)
assert len(resolved) == 2
print(sorted(set(preloaded) - set(sys.modules)))
"""
    assert _python(f"SIMULATOR = {SIMULATOR!r}" + code, tmp_path) == "[]"


def test_serve_daemon_loads_neither_numpy_nor_the_simulator(tmp_path):
    """Its workers are spawned and inherit nothing, so the daemon skips
    the pre-fork import even in a generation that simulates."""
    code = """
import sys
from repro.harness.serve import ResultsServer, ServeConfig
config = ServeConfig(
    names=["multicore"], out_dir="out", cache_dir="cache", jobs=2, n_insts=500
)
entry = ResultsServer(config).run_generation("initial", [])
assert entry["dirty"] == entry["executed"] == entry["planned"] > 0, entry
print(sorted({"numpy", "repro.arch.machine"} & set(sys.modules)))
"""
    assert _python(code, tmp_path) == "[]"


#: Runs one batch in a pool worker with a trace store and reports the
#: stats and whether the worker imported numpy.
PROBE = """
import sys
from repro.harness.engine import _execute_batch


def probe(store, batch):
    stats = _execute_batch(batch, traces=store)
    return [s.to_dict() for s in stats], "numpy" in sys.modules
"""


def test_spawned_worker_on_a_stored_trace_does_not_load_numpy(tmp_path):
    (tmp_path / "trace_probe.py").write_text(PROBE)
    code = """
from functools import partial
from pathlib import Path
from repro.arch import skylake_machine
from repro.harness.engine import TraceStore, parallel_map, trace_salt
from repro.harness.spec import SimPoint
from repro.schemes import cwsp
import trace_probe

point = SimPoint("lbm", cwsp(), skylake_machine(scaled=True), "pruned", 500, 1)
store = TraceStore(Path("trace"), trace_salt())


def run():
    fn = partial(trace_probe.probe, store)
    return parallel_map(fn, [[point]], mp_context="spawn", always_pool=True)[0]


generated, generated_numpy = run()
stored, stored_numpy = run()
assert stored == generated
print(generated_numpy, stored_numpy, len(list(Path("trace").iterdir())))
"""
    assert _python(code, tmp_path) == "True False 1"


@pytest.mark.parametrize("package", ["repro.arch", "repro.workloads"])
def test_every_reexport_resolves(package):
    """The lazily re-exported names resolve to the defining module's object."""
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        owner = getattr(module, "_LAZY", {}).get(name)
        if owner is not None:
            assert value is getattr(importlib.import_module(owner), name), name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
