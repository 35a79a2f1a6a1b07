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
it does numpy -- numpy only when no trace store is given: the serve
daemon's generations read stored traces, and a process whose traces
are stored never loads numpy at all.  The daemon itself only watches:
each generation runs in a child forked for it, which imports the
simulator.  A warm run also parses no salted module: the salt walk's
parses are stored beside the results.

Each check runs in a fresh interpreter: the test process itself has
long since imported all of these.
"""

import importlib
import json
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
preloaded = ["numpy", "numpy.random"] + SIMULATOR
assert not set(preloaded) & set(sys.modules)
resolved, runs = compute_points(misses, NullCache(), jobs=2)
assert len(resolved) == runs == 2
print(sorted(set(preloaded) - set(sys.modules)))
"""
    assert _python(f"SIMULATOR = {SIMULATOR!r}" + code, tmp_path) == "[]"


def test_serve_supervisor_loads_neither_numpy_nor_the_simulator(tmp_path):
    """Generations run in forked children, so the daemon that forks them
    imports neither, even when a generation simulates."""
    code = """
import sys
from repro.harness.serve import ResultsServer, ServeConfig
config = ServeConfig(
    names=["multicore"], out_dir="out", cache_dir="cache", jobs=2,
    n_insts=500, max_generations=1,
)
server = ResultsServer(config)
assert server.serve_forever() == 0
landed = server.generation, len(open("out/generations.jsonl").readlines())
assert landed == (1, 1), landed
print(sorted(set(["numpy"] + SIMULATOR) & set(sys.modules)))
"""
    assert _python(f"SIMULATOR = {SIMULATOR!r}" + code, tmp_path) == "[]"


def test_generation_on_stored_traces_loads_numpy_nowhere(tmp_path):
    """An audit hook, inherited by every fork, logs each numpy import
    with its process id: generation 0 generates (and stores) its traces
    in the workers, and a second generation on the filled trace store,
    with every result dirty, imports numpy in neither the child nor its
    workers."""
    code = """
import json, os, shutil, sys
from pathlib import Path
from repro.harness.serve import ResultsServer, ServeConfig

def log_numpy(event, args):
    if event == "import" and args[0] == "numpy":
        with open("numpy-imports", "a") as fh:
            fh.write(f"{os.getpid()}\\n")

sys.addaudithook(log_numpy)
config = ServeConfig(
    names=["multicore"], out_dir="out", cache_dir="cache", jobs=2, n_insts=500
)
server = ResultsServer(config)
assert server.fork_generation("initial", []) == 0
generated = set(Path("numpy-imports").read_text().split())
assert generated and str(os.getpid()) not in generated, generated
os.remove("numpy-imports")
traces = sorted(os.listdir("cache/trace"))
for entry in os.listdir("cache"):
    if len(entry) == 2:
        shutil.rmtree(os.path.join("cache", entry))
assert server.fork_generation("edit", []) == 0
last = json.loads(open("out/generations.jsonl").readlines()[-1])
assert last["dirty"] == last["planned"] > 0, last
assert sorted(os.listdir("cache/trace")) == traces
print(os.path.exists("numpy-imports"), "numpy" in sys.modules)
"""
    assert _python(code, tmp_path) == "False False"


THREADS = (
    "import repro, numpy.random, os; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_numpy_loads_single_threaded(tmp_path, monkeypatch):
    """Nothing calls BLAS, so importing repro first keeps numpy from
    starting OpenBLAS's thread pool: the process runs one OS thread."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert _python(THREADS, tmp_path) == "1 1"


def test_a_user_set_blas_thread_count_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    code = "import repro, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, tmp_path) == "3"


def test_cached_campaign_and_frozen_replay_load_no_numpy(tmp_path):
    """A fully cached campaign writes its lockfile, and a frozen replay
    checks it, with numpy's version read from its metadata: the string
    equals ``numpy.__version__`` and numpy itself never loads."""
    import numpy

    spec = {
        "name": "t", "schemes": ["cwsp"], "profiles": ["lbm"],
        "pb_entries": [20], "n_insts": 500,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    run = (
        "import sys; from repro.explore.cli import main; main({!r}); "
        "print('numpy' in sys.modules)"
    )
    campaign = ["--spec", "spec.json", "--cache-dir", "cache", "--campaign-dir"]
    assert _python(run.format(campaign + ["cold"]), tmp_path) == "True"
    assert _python(run.format(campaign + ["warm"]), tmp_path) == "False"
    frozen = ["--frozen", "warm/lockfile.json", "--cache-dir", "cache"]
    assert _python(run.format(frozen + ["--expect-cached"]), tmp_path) == "False"
    for name in ("cold", "warm"):
        lock = json.loads((tmp_path / name / "lockfile.json").read_text())
        assert lock["environment"]["numpy"] == numpy.__version__


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
