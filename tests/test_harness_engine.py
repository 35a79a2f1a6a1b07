"""The experiment engine: planning, dedup, caching, parallel fan-out."""

import copy
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import SimStats, skylake_machine
from repro.harness.engine import (
    BATCHES_PER_JOB,
    Engine,
    NullCache,
    ResultCache,
    TraceStore,
    code_salt,
    compute_salt_recipe,
    compute_point,
    form_batches,
    parallel_map,
    point_cache_key,
    recipe_salt,
    trace_salt,
)
from repro.harness.report import FigureResult
from repro.harness.spec import (
    ExperimentSpec,
    MulticorePoint,
    PlanContext,
    ResolvedResolver,
    ShapeError,
    SimPoint,
)
from repro.schemes import baseline, cwsp
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_trace

N = 2000


def _spec(name, apps, scheme_factory=cwsp, check=None):
    """A minimal slowdown experiment over *apps*."""

    def build(r, ctx):
        result = FigureResult(name, "test experiment", ["app", "slowdown"])
        for app in apps:
            result.add(app, r.slowdown(app, scheme_factory(), skylake_machine(scaled=True)))
        result.summary = {"n": float(len(apps))}
        return result

    return ExperimentSpec(name, name, build, default_n_insts=N, check=check)


class CountingCache:
    """An in-process cache that counts lookups and stores."""

    scans = None  # no directory: the salt walk parses

    def __init__(self):
        self._store = {}
        self.gets = 0
        self.puts = 0

    def get(self, key):
        self.gets += 1
        return self._store.get(key)

    def put(self, key, point, stats):
        self.puts += 1
        self._store[key] = stats


def _run_one(eng, spec):
    return eng.run([spec])[spec.name]


class TestCacheKey:
    def test_stable_across_calls(self):
        p = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", N, 1)
        assert point_cache_key(p) == point_cache_key(p)

    def test_sensitive_to_every_point_field(self):
        m = skylake_machine(scaled=True)
        base = SimPoint("namd", cwsp(), m, "pruned", N, 1)
        variants = [
            SimPoint("lbm", cwsp(), m, "pruned", N, 1),
            SimPoint("namd", baseline(), m, "pruned", N, 1),
            SimPoint("namd", cwsp(), m, None, N, 1),
            SimPoint("namd", cwsp(), m, "pruned", N + 1, 1),
            SimPoint("namd", cwsp(), m, "pruned", N, 2),
        ]
        keys = {point_cache_key(p) for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_salt_invalidates(self):
        p = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", N, 1)
        assert point_cache_key(p, salt="a") != point_cache_key(p, salt="b")
        assert point_cache_key(p) == point_cache_key(p, salt=code_salt())


def _oracle_payload(point):
    """What the keys and cache entries serialise: a plain deep ``asdict``."""
    return {"kind": type(point).__name__, "point": dataclasses.asdict(point)}


def _oracle_key(point, salt):
    payload = dict(_oracle_payload(point), salt=salt)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _numbers():
    """Small numbers as int or float, so equal values of both types occur."""
    return st.integers(0, 4).flatmap(lambda n: st.sampled_from([n, float(n)]))


def _like(value):
    """A strategy for values shaped like *value*, types mixed where they
    compare equal (``1`` / ``1.0`` / ``True``)."""
    if dataclasses.is_dataclass(value):
        fields = {f.name: _like(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return st.fixed_dictionaries(fields).map(lambda kw: type(value)(**kw))
    if isinstance(value, tuple):
        return st.tuples(*map(_like, value))
    if isinstance(value, bool):
        return st.sampled_from([True, False, 1, 0])
    if isinstance(value, (int, float)):
        return _numbers()
    if isinstance(value, str):
        return st.sampled_from(["PMEM", "L1D", "x"])
    return st.none() | _numbers()


def _replaced(base):
    """``dataclasses.replace(base, ...)`` over a random subset of fields."""
    optional = {f.name: _like(getattr(base, f.name)) for f in dataclasses.fields(base)}
    return st.fixed_dictionaries({}, optional=optional).map(
        lambda kw: dataclasses.replace(base, **kw)
    )


class TestKeyIdentity:
    """Keys and cache entries equal a plain ``dataclasses.asdict`` oracle,
    though the engine builds one ``asdict`` per distinct config."""

    SALT = "pinned-salt"

    def _grid(self):
        from repro.explore.spec import PRESETS, expand
        from repro.harness.figures import SPECS

        points = [p for _key, p in Engine(salt=self.SALT).plan(list(SPECS.values()))]
        return points + expand(PRESETS["smoke"]).points

    def test_default_grid_and_smoke_preset_keys_match_oracle(self):
        points = self._grid()
        assert len(points) == 1457 + 21
        for point in points:
            assert point_cache_key(point, self.SALT) == _oracle_key(point, self.SALT)

    def test_cache_entry_bytes_match_oracle(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        stats = SimStats("cwsp")
        for point in self._grid():
            key = point_cache_key(point, self.SALT)
            cache.put(key, point, stats)
            expected = dict(_oracle_payload(point), key=key, stats=stats.to_dict())
            written = cache._path(key).read_text()
            assert written == json.dumps(expected, sort_keys=True), key

    def test_entry_bytes_match_the_streaming_encoder(self, tmp_path):
        # Entries are encoded by one json.dumps; the bytes are the ones
        # json.dump streamed to the file before, simulated floats included.
        import repro.harness.engine as engine_mod

        point = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", 2000, 1)
        stats = compute_point(point)
        key = point_cache_key(point, self.SALT)
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(key, point, stats)
        candidates = [("repro.arch", "machine"), ("repro.x", None)]
        cache.scans.put("d" * 64, candidates)
        pairs = [
            (cache._path(key), dict(_oracle_payload(point), key=key, stats=stats.to_dict())),
            (
                cache.scans._path("d" * 64),
                {"candidates": candidates, "digest": "d" * 64, "scanner": engine_mod._SCANNER},
            ),
        ]
        for path, payload in pairs:
            with open(tmp_path / "streamed.json", "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheme=_replaced(cwsp()),
        machine=_replaced(skylake_machine(scaled=True)),
        multicore=st.booleans(),
    )
    def test_replaced_configs_match_oracle(self, scheme, machine, multicore):
        if multicore:
            point = MulticorePoint(("lbm", "namd"), ("lbm",), scheme, machine, None, N, 2)
        else:
            point = SimPoint("namd", scheme, machine, "pruned", N, 1)
        assert point_cache_key(point, self.SALT) == _oracle_key(point, self.SALT)

    def test_equal_configs_that_serialise_differently_get_their_own_keys(self):
        # Equal and equally hashed, but 0 and 0.0 (True and 1) print
        # differently: a memo keyed by the config would reuse the first.
        for twins in ([0.0, 0], [0, 0.0], [True, 1], [1, True]):
            schemes = [dataclasses.replace(cwsp(), ckpt_stores_per_region=v) for v in twins]
            assert schemes[0] == schemes[1] and hash(schemes[0]) == hash(schemes[1])
            points = [SimPoint("namd", s, skylake_machine(scaled=True), None, N, 1) for s in schemes]
            keys = [point_cache_key(p, self.SALT) for p in points]
            assert keys == [_oracle_key(p, self.SALT) for p in points]
            assert keys[0] != keys[1]

    def test_configs_freed_and_rebuilt_match_oracle(self):
        # Each machine dies before the next is built, so CPython hands
        # the next one the same id(): a memo keyed by id() would serve
        # the previous machine's dict.
        for pb in range(10, 40):
            point = SimPoint("namd", cwsp(), skylake_machine(scaled=True, pb_entries=pb), None, N, 1)
            assert point_cache_key(point, self.SALT) == _oracle_key(point, self.SALT)

    def test_literal_keys(self):
        machine = skylake_machine(scaled=True)
        single = SimPoint("namd", cwsp(), machine, "pruned", 2000, 1)
        multi = MulticorePoint(("lbm", "namd"), ("lbm", "namd", "milc"), baseline(), machine, None, 1000, 3)
        assert point_cache_key(single, self.SALT) == (
            "00a2231bbca6b10f0f2b6e5b4c492e1a50cb5b1b7d055420571e50ef161cbc6b"
        )
        assert point_cache_key(multi, self.SALT) == (
            "0d2c6ffff3a70499f41e6a5c92f9a3d3f077dd5063662fc97b800c126310b9a1"
        )

    def test_puts_leave_the_shared_config_dicts_unchanged(self, tmp_path):
        import repro.harness.engine as engine_mod

        machine = skylake_machine(scaled=True)
        points = [SimPoint(app, cwsp(), machine, None, N, 1) for app in ("namd", "lbm")]
        cache = ResultCache(str(tmp_path))
        cache.put(point_cache_key(points[0]), points[0], SimStats("cwsp"))
        shared = engine_mod._CONFIG_DICTS[repr(machine)]
        before = copy.deepcopy(shared)
        for point in points:
            cache.put(point_cache_key(point), point, SimStats("cwsp"))
        assert engine_mod._CONFIG_DICTS[repr(machine)] is shared
        assert shared == before == dataclasses.asdict(machine)


class TestDedupAndCache:
    def test_shared_points_execute_exactly_once(self):
        # Both specs need cwsp+baseline for "namd"; spec_b adds one app.
        cache = CountingCache()
        eng = Engine(cache=cache)
        eng.run([_spec("a", ["namd"]), _spec("b", ["namd", "lbm"])])
        # 2 apps x (baseline, cwsp) = 4 deduplicated points, each
        # simulated exactly once despite "namd" appearing in both specs.
        assert eng.last_run.planned == 4
        assert eng.last_run.simulated == 4
        assert cache.puts == 4

    def test_warm_rerun_does_zero_simulations(self):
        cache = CountingCache()
        eng = Engine(cache=cache)
        first = _run_one(eng, _spec("a", ["namd", "lbm"]))
        assert eng.last_run.simulated == 4
        again = _run_one(eng, _spec("a", ["namd", "lbm"]))
        assert eng.last_run.simulated == 0
        assert eng.last_run.cached == 4
        assert cache.puts == 4  # nothing new stored
        assert again.rows == first.rows

    def test_disk_cache_warm_across_engines(self, tmp_path):
        spec = _spec("a", ["namd"])
        e1 = Engine(cache=ResultCache(str(tmp_path)))
        r1 = _run_one(e1, spec)
        assert e1.last_run.simulated == 2
        e2 = Engine(cache=ResultCache(str(tmp_path)))
        r2 = _run_one(e2, spec)
        assert e2.last_run.simulated == 0
        assert r2.rows == r1.rows

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = _spec("a", ["namd"])
        e1 = Engine(cache=ResultCache(str(tmp_path)))
        _run_one(e1, spec)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{torn")
        e2 = Engine(cache=ResultCache(str(tmp_path)))
        _run_one(e2, spec)
        assert e2.last_run.simulated == 2  # recomputed, not crashed

    def test_code_salt_change_invalidates(self, tmp_path):
        spec = _spec("a", ["namd"])
        e1 = Engine(cache=ResultCache(str(tmp_path)), salt="v1")
        _run_one(e1, spec)
        e2 = Engine(cache=ResultCache(str(tmp_path)), salt="v2")
        _run_one(e2, spec)
        assert e2.last_run.simulated == 2  # different salt: full recompute
        e3 = Engine(cache=ResultCache(str(tmp_path)), salt="v1")
        _run_one(e3, spec)
        assert e3.last_run.simulated == 0

    def test_null_cache_always_executes(self):
        eng = Engine(cache=NullCache())
        spec = _spec("a", ["namd"])
        _run_one(eng, spec)
        assert eng.last_run.simulated == 2
        _run_one(eng, spec)
        assert eng.last_run.simulated == 2

    def test_cache_entry_records_point_provenance(self, tmp_path):
        eng = Engine(cache=ResultCache(str(tmp_path)))
        _run_one(eng, _spec("a", ["namd"]))
        entries = list(tmp_path.rglob("*.json"))
        assert len(entries) == 2
        payload = json.loads(entries[0].read_text())
        assert payload["kind"] == "SimPoint"
        assert payload["point"]["app"] == "namd"
        assert "stats" in payload
        assert entries[0].name == f"{payload['key']}.json"

    def test_entry_under_wrong_key_is_a_miss(self, tmp_path):
        """A valid entry copied to another key's path (another point, or
        the same point under another salt) is not served."""
        cache = ResultCache(str(tmp_path))
        point = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", N, 1)
        right = point_cache_key(point, salt="v1")
        wrong = point_cache_key(point, salt="v2")
        cache.put(right, point, compute_point(point))
        assert cache.get(right) is not None
        planted = cache._path(wrong)
        planted.parent.mkdir(parents=True, exist_ok=True)
        planted.write_bytes(cache._path(right).read_bytes())
        assert cache.get(wrong) is None
        assert cache.get(right) is not None
        planted.write_text("[]")  # parseable, but not an entry
        assert cache.get(wrong) is None


class TestParallelism:
    def test_jobs2_matches_jobs1(self):
        spec = _spec("a", ["namd", "lbm", "milc"])
        r1 = _run_one(Engine(jobs=1, cache=NullCache()), spec)
        r2 = _run_one(Engine(jobs=2, cache=NullCache()), spec)
        assert r1.rows == r2.rows

    def test_parallel_map_inline_and_pool(self):
        tasks = list(range(7))
        assert parallel_map(_square, tasks, jobs=1) == [x * x for x in tasks]
        assert parallel_map(_square, tasks, jobs=2) == [x * x for x in tasks]
        assert sorted(parallel_map(_square, tasks, jobs=2, ordered=False)) == sorted(
            x * x for x in tasks
        )


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# Batch formation: misses run in per-app batches, one pool task each.
# ----------------------------------------------------------------------
def _misses(apps, n_multicore=0):
    machine = skylake_machine(scaled=True)
    points = [
        SimPoint(app, scheme, machine, None, N, seed)
        for seed, app in enumerate(apps)
        for scheme in (baseline(), cwsp())
    ]
    points += [
        MulticorePoint(("lbm", "namd"), ("lbm", "namd"), cwsp(), machine, None, N, i)
        for i in range(n_multicore)
    ]
    return [(f"key-{i}", point) for i, point in enumerate(points)]


class TestBatchFormation:
    APPS = ["lbm"] * 9 + ["namd"] * 4 + ["milc", "lbm", "astar"] * 3

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_apps", [1, 2, 7, len(APPS)])
    def test_partition_cap_and_app_purity(self, jobs, n_apps):
        misses = _misses(self.APPS[:n_apps], n_multicore=2)
        batches = form_batches(misses, jobs)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(misses)))
        cap = -(-len(misses) // (BATCHES_PER_JOB * jobs))
        assert all(1 <= len(batch) <= cap for batch in batches)
        assert len(batches) >= min(jobs, len(misses))
        for batch in batches:
            points = [misses[i][1] for i in batch]
            if any(isinstance(p, MulticorePoint) for p in points):
                assert len(batch) == 1
            else:
                assert len({p.app for p in points}) == 1
            assert batch == sorted(batch)  # plan order within a batch
        # Chunks of one app differ in size by at most one.
        by_app = {}
        for batch in batches:
            point = misses[batch[0]][1]
            if isinstance(point, SimPoint):
                by_app.setdefault(point.app, []).append(len(batch))
        assert all(max(sizes) - min(sizes) <= 1 for sizes in by_app.values())

    def test_batch_shares_each_trace(self, monkeypatch):
        """A batch of one app generates each trace once; a point that
        shares nothing takes the direct path."""
        from repro.harness import engine as engine_mod
        from repro.workloads import synthetic

        calls = []
        real_trace = synthetic.generate_trace

        def counting_trace(*args, **kwargs):
            calls.append(args)
            return real_trace(*args, **kwargs)

        monkeypatch.setattr(synthetic, "generate_trace", counting_trace)
        machine = skylake_machine(scaled=True)
        batch = [
            (f"key-{i}", SimPoint("lbm", scheme, machine, instrument, N, 1))
            for i, (scheme, instrument) in enumerate(
                [(baseline(), None), (cwsp(), "pruned"), (cwsp(), None)]
            )
        ]
        stats, runs = engine_mod._execute_batch([point for _key, point in batch])
        assert runs == 3
        assert len(calls) == 2  # two distinct traces
        for (_key, point), got in zip(batch, stats):
            assert json.dumps(got.to_dict()) == json.dumps(compute_point(point).to_dict())
        calls.clear()
        engine_mod._execute_batch([batch[0][1]])
        assert len(calls) == 1


SWEEP_SPEC = Path(__file__).resolve().parents[1] / "bench" / "sweep.json"


def _sweep_misses():
    """The 100 points of the repository benchmark's design sweep."""
    from repro.explore.spec import expand, load_spec

    plan = expand(load_spec(str(SWEEP_SPEC)))
    return [(f"key-{i}", point) for i, point in enumerate(plan.points)]


class TestCapacitySiblings:
    """A run that never filled a queue serves the points that differ from
    it only in larger capacities of that queue."""

    def test_sweep_resolves_100_points_with_24_runs(self, monkeypatch):
        from repro.arch.machine import TimingSimulator
        from repro.harness.engine import resolve_points

        runs = []
        real_run = TimingSimulator.run

        def counting_run(sim, events):
            runs.append(sim)
            return real_run(sim, events)

        monkeypatch.setattr(TimingSimulator, "run", counting_run)
        misses = _sweep_misses()
        resolved, info = resolve_points(misses, NullCache(), jobs=1)
        assert (len(misses), info.simulated, len(runs)) == (100, 100, 24)
        assert info.runs == 24
        assert info.describe() == "100 deduplicated points: 0 cached, 100 simulated in 24 runs"
        assert len({id(stats) for stats in resolved.values()}) == 100
        monkeypatch.undo()
        for _key, point in misses:
            assert json.dumps(resolved[point].to_dict()) == json.dumps(
                compute_point(point).to_dict()
            )

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_batches_keep_sibling_groups_whole(self, jobs):
        from repro.harness.engine import _sibling_group

        misses = _sweep_misses()
        batches = form_batches(misses, jobs)
        assert sorted(i for batch in batches for i in batch) == list(range(100))
        homes = {}
        for n, batch in enumerate(batches):
            for i in batch:
                homes.setdefault(_sibling_group(misses[i][1])[0], set()).add(n)
        assert len(homes) == 4 + 3 * 4  # baselines; schemes x apps
        assert all(len(home) == 1 for home in homes.values())

    def test_serves_only_unfilled_larger_queues(self):
        from repro.arch.machine import serves, sibling

        machine = skylake_machine(scaled=True)
        scheme = cwsp()
        witness = sibling(machine, scheme)
        unfilled = SimStats(scheme.name)
        filled = SimStats(scheme.name)
        filled.metrics.counter("pb.full_stalls").value = 3

        def at(**sizes):
            return sibling(dataclasses.replace(machine, **sizes), scheme)

        assert serves(witness, filled, at())
        assert serves(witness, unfilled, at(pb_entries=51, wb_entries=33))
        assert not serves(witness, filled, at(pb_entries=51))
        assert serves(witness, filled, at(wpq_entries=25))
        assert not serves(witness, unfilled, at(pb_entries=49))
        # A scheme's sizing wins over the machine's.
        assert serves(witness, filled, sibling(dataclasses.replace(
            machine, pb_entries=8), dataclasses.replace(scheme, pb_entries_override=50)))
        # Any other field differs: a different run.
        assert not serves(witness, unfilled, sibling(
            dataclasses.replace(machine, commit_width=2.0), scheme))
        assert not serves(witness, unfilled, sibling(machine, scheme.with_name("x")))


def _die_on_seed_666(point, batch=None, traces=None):
    import os as _os
    import signal as _signal
    import time as _time

    from repro.arch.machine import SimStats

    if point.seed == 666:
        _time.sleep(1.0)  # let the other worker finish + flush first
        _os.kill(_os.getpid(), _signal.SIGKILL)
    return SimStats(scheme=point.scheme.name)


def test_worker_crash_keeps_every_completed_batch(monkeypatch):
    from repro.harness import engine as engine_mod
    from repro.harness.engine import WorkerCrash, resolve_points

    # Forked workers inherit the patched compute_point.
    monkeypatch.setattr(engine_mod, "compute_point", _die_on_seed_666)
    machine = skylake_machine(scaled=True)
    misses = [("key-die", SimPoint("lbm", cwsp(), machine, None, N, 666))] + _misses(
        ["namd", "milc", "lbm", "astar", "namd"]
    )
    cache = CountingCache()
    with pytest.raises(WorkerCrash, match="worker process died"):
        resolve_points(misses, cache, jobs=2)
    batches = form_batches(misses, 2)
    survivors = {
        misses[i][0] for batch in batches if 0 not in batch for i in batch
    }
    assert len(batches) > 2 and survivors
    assert set(cache._store) == survivors


class TestEngineSemantics:
    def test_seed_propagates_into_points(self):
        eng = Engine(seed=7)
        points = _spec("a", ["namd"]).plan(eng.context_for(_spec("a", ["namd"])))
        assert all(p.seed == 7 for p in points)

    def test_n_insts_override(self):
        eng = Engine(n_insts=1234)
        spec = _spec("a", ["namd"])
        points = spec.plan(eng.context_for(spec))
        assert all(p.n_insts == 1234 for p in points)

    def test_seeds_change_results(self):
        p1 = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", N, 1)
        p2 = SimPoint("namd", cwsp(), skylake_machine(scaled=True), "pruned", N, 2)
        assert compute_point(p1).cycles != compute_point(p2).cycles

    def test_shape_violation_raises(self):
        def bad_check(result):
            assert False, "deliberately broken"

        eng = Engine()
        with pytest.raises(ShapeError, match="deliberately broken"):
            _run_one(eng, _spec("a", ["namd"], check=bad_check))

    def test_unplanned_point_rejected(self):
        resolver = ResolvedResolver(PlanContext(n_insts=N), {})
        with pytest.raises(RuntimeError, match="not planned"):
            resolver.stats("namd", cwsp(), skylake_machine(scaled=True))

    def test_provenance_records_schemes(self):
        eng = Engine()
        _run_one(eng, _spec("a", ["namd"]))
        prov = eng.provenance["a"]
        assert set(prov) == {"baseline", "cwsp"}
        assert prov["cwsp"]["persist_bytes"] == 8


class TestSaltRecipe:
    """The dependency-sliced cache salt (DESIGN.md section 9)."""

    def test_recipe_covers_exactly_the_simulated_modules(self):
        from repro.harness.engine import salt_recipe

        modules = set(salt_recipe()["modules"])
        # Exactly what a simulation point executes: a superset check
        # would let an import moved into a function (invisible to the
        # module-level AST walk) silently drop a module from the key.
        assert modules == {
            "repro.arch.machine",
            "repro.arch.multicore",
            "repro.arch.caches",
            "repro.arch.queues",
            "repro.arch.trace",
            "repro.arch.metrics",
            "repro.arch.config",
            "repro.arch.scheme",
            "repro.schemes.catalog",
            "repro.workloads.profiles",
            "repro.workloads.synthetic",
        }
        # ...and nothing a point never touches: the harness itself,
        # the compiler/IR stack, and the fault engine.
        for absent in (
            "repro.harness.engine",
            "repro.ir.interpreter",
            "repro.compiler.pipeline",
            "repro.faults.campaign",
            "repro.workloads.adapter",
        ):
            assert absent not in modules, absent

    def test_salt_is_recipe_digest_and_stable(self):
        import hashlib
        import json

        from repro.harness.engine import salt_recipe

        canonical = json.dumps(salt_recipe(), sort_keys=True, separators=(",", ":"))
        assert code_salt() == hashlib.sha256(canonical.encode()).hexdigest()[:16]
        assert code_salt() == code_salt()

    def test_recipe_hashes_match_files(self):
        import hashlib
        from pathlib import Path

        import repro
        from repro.harness.engine import salt_recipe

        root = Path(repro.__file__).parent.parent
        for name, digest in salt_recipe()["modules"].items():
            path = root / Path(*name.split(".")).with_suffix(".py")
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), name


# ----------------------------------------------------------------------
# Salt closure vs. import styles (issue 10 satellite): the AST walk
# must include every *runtime* import and exclude type-checking-only
# and lazy ones, proven against planted fixture modules.
# ----------------------------------------------------------------------
_FX_ENTRY = '''\
"""Fixture entry module exercising every import style the walk handles."""
import typing
from typing import TYPE_CHECKING

import repro.fx_plain
from repro import fx_from
from repro.fx_pkg.mod import thing

try:
    import repro.fx_optional
except ImportError:
    import repro.fx_fallback

if TYPE_CHECKING:
    import repro.fx_typeonly
else:
    import repro.fx_else

if typing.TYPE_CHECKING:
    import repro.fx_typing_attr


def lazy():
    import repro.fx_lazy

    return repro.fx_lazy
'''


@pytest.fixture
def fixture_tree(tmp_path, monkeypatch):
    """A fake src root with one entry module and its planted imports."""
    import repro.harness.engine as engine_mod

    pkg = tmp_path / "repro"
    (pkg / "fx_pkg").mkdir(parents=True)
    (pkg / "fx_entry.py").write_text(_FX_ENTRY)
    (pkg / "fx_pkg" / "__init__.py").write_text("")
    (pkg / "fx_pkg" / "mod.py").write_text("thing = 1\n")
    for name in (
        "fx_plain", "fx_from", "fx_optional", "fx_fallback",
        "fx_else", "fx_typeonly", "fx_typing_attr", "fx_lazy",
    ):
        (pkg / f"{name}.py").write_text(f"VALUE = {name!r}\n")
    monkeypatch.setattr(engine_mod, "_src_root", lambda: tmp_path)
    return pkg


class TestSaltImportStyles:
    ENTRIES = ("repro.fx_entry",)

    def _recipe(self):
        from repro.harness.engine import compute_salt_recipe

        return compute_salt_recipe(entries=self.ENTRIES)

    def test_runtime_imports_all_land_in_the_recipe(self, fixture_tree):
        modules = set(self._recipe()["modules"])
        assert modules == {
            "repro.fx_entry",
            "repro.fx_plain",          # plain `import repro.x`
            "repro.fx_from",           # `from repro import x` (x is a module)
            "repro.fx_pkg.mod",        # `from repro.pkg.mod import name`
            "repro.fx_optional",       # `try: import x` body
            "repro.fx_fallback",       # `except ImportError:` arm
            "repro.fx_else",           # else-branch of a TYPE_CHECKING gate
        }

    def test_type_checking_and_lazy_imports_stay_out(self, fixture_tree):
        modules = set(self._recipe()["modules"])
        # Never executes at runtime: hashing these would invalidate
        # caches for edits no simulation can observe.
        assert "repro.fx_typeonly" not in modules      # if TYPE_CHECKING:
        assert "repro.fx_typing_attr" not in modules   # if typing.TYPE_CHECKING:
        assert "repro.fx_lazy" not in modules          # function-level import

    def test_try_except_import_is_a_real_dependency(self, fixture_tree):
        """Editing an optional-import module must change the salt."""
        from repro.harness.engine import recipe_salt

        before = recipe_salt(self._recipe())
        with open(fixture_tree / "fx_optional.py", "a") as fh:
            fh.write("# edited\n")
        assert recipe_salt(self._recipe()) != before


@pytest.fixture
def parses(monkeypatch):
    """The sources ``ast.parse`` sees, starting from an empty memo."""
    import ast

    import repro.harness.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_CANDIDATES_BY_DIGEST", {})
    seen = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        seen.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return seen


class TestSaltParseMemo:
    """Each file version is parsed once per process; resolution of
    ``from pkg import name`` still runs on every recipe."""

    ENTRIES = ("repro.fx_entry",)

    def _recipe(self):
        from repro.harness.engine import compute_salt_recipe

        return compute_salt_recipe(entries=self.ENTRIES)

    def test_second_recipe_parses_nothing(self, fixture_tree, parses):
        first = self._recipe()
        assert len(parses) == len(first["modules"])
        parses.clear()
        assert self._recipe() == first
        assert parses == []

    def test_an_edit_reparses_exactly_that_file(self, fixture_tree, parses):
        first = self._recipe()
        parses.clear()
        edited = fixture_tree / "fx_pkg" / "mod.py"
        edited.write_text("thing = 2  # edited\n")
        second = self._recipe()
        assert parses == [edited.read_bytes()]
        changed = {n for n in first["modules"] if first["modules"][n] != second["modules"][n]}
        assert changed == {"repro.fx_pkg.mod"}

    def test_resolution_follows_the_tree_not_the_memo(self, fixture_tree, parses):
        module = fixture_tree / "fx_from.py"
        saved = module.read_bytes()
        module.unlink()
        # `from repro import fx_from` names no module yet...
        assert "repro.fx_from" not in self._recipe()["modules"]
        parses.clear()
        module.write_bytes(saved)
        # ...and does once the file exists, though fx_entry.py's bytes,
        # and so its memoised parse, are unchanged.
        assert "repro.fx_from" in self._recipe()["modules"]
        assert parses == [saved]
        module.unlink()
        assert "repro.fx_from" not in self._recipe()["modules"]
        module.write_bytes(saved)
        assert "repro.fx_from" in self._recipe()["modules"]
        assert parses == [saved]


class TestScanStore:
    """The salt walk's parses on disk, one entry per file version: a
    second process on the same cache directory parses nothing, and no
    state of the store can change a recipe."""

    ENTRIES = ("repro.fx_entry",)

    def _recipe(self, scans=None):
        import repro.harness.engine as engine_mod

        engine_mod._CANDIDATES_BY_DIGEST.clear()  # a fresh process
        return engine_mod.compute_salt_recipe(entries=self.ENTRIES, scans=scans)

    def _store(self, tmp_path):
        from repro.harness.engine import ResultCache

        return ResultCache(str(tmp_path / "cache")).scans

    @staticmethod
    def _entry_file(store, tree, rel):
        return store.root / f"{hashlib.sha256((tree / rel).read_bytes()).hexdigest()}.json"

    def test_no_store_state_changes_the_recipe(self, fixture_tree, parses, tmp_path):
        from repro.harness.engine import recipe_salt

        expected = self._recipe()
        store = self._store(tmp_path)
        assert self._recipe(store) == expected  # empty store: parse, fill
        assert len(list(store.root.iterdir())) == len(expected["modules"])
        parses.clear()
        assert self._recipe(store) == expected  # filled store: no parse
        assert parses == []
        torn = self._entry_file(store, fixture_tree, "fx_entry.py")
        torn.write_text(torn.read_text()[:20])
        assert self._recipe(store) == expected
        assert parses == [(fixture_tree / "fx_entry.py").read_bytes()]
        # An entry copied under another file's digest: fx_plain imports
        # nothing, so serving it for fx_entry would drop the closure.
        torn.write_bytes(self._entry_file(store, fixture_tree, "fx_plain.py").read_bytes())
        parses.clear()
        assert self._recipe(store) == expected
        assert parses == [(fixture_tree / "fx_entry.py").read_bytes()]
        parses.clear()
        assert self._recipe(store) == expected  # both rewritten whole
        assert parses == []
        assert recipe_salt(self._recipe(store)) == recipe_salt(expected)

    def test_code_salt_is_the_same_through_the_store(self, parses, tmp_path, monkeypatch):
        import repro.harness.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_salt_recipe", None)
        monkeypatch.setattr(engine_mod, "_code_salt", None)
        plain = recipe_salt(compute_salt_recipe())
        store = self._store(tmp_path)
        engine_mod._CANDIDATES_BY_DIGEST.clear()
        assert engine_mod.code_salt(scans=store) == plain
        engine_mod._CANDIDATES_BY_DIGEST.clear()
        parses.clear()
        assert recipe_salt(compute_salt_recipe(scans=store)) == plain
        assert parses == []
        assert len(list(store.root.iterdir())) == 11

    def test_an_edit_reparses_that_file_and_adds_one_entry(
        self, fixture_tree, parses, tmp_path
    ):
        store = self._store(tmp_path)
        self._recipe(store)
        before = set(store.root.iterdir())
        edited = fixture_tree / "fx_entry.py"
        edited.write_text(edited.read_text().replace("import repro.fx_plain\n", ""))
        parses.clear()
        recipe = self._recipe(store)
        assert parses == [edited.read_bytes()]
        assert "repro.fx_plain" not in recipe["modules"]  # the dropped import
        after = set(store.root.iterdir())
        assert after - before == {self._entry_file(store, fixture_tree, "fx_entry.py")}
        assert len(after) == len(before) + 1

    def test_an_entry_from_another_scanner_is_a_miss(self, fixture_tree, parses, tmp_path):
        store = self._store(tmp_path)
        expected = self._recipe(store)
        entry = self._entry_file(store, fixture_tree, "fx_entry.py")
        data = json.loads(entry.read_text())
        data["scanner"], data["candidates"] = "0" * 64, []
        entry.write_text(json.dumps(data))
        parses.clear()
        assert self._recipe(store) == expected
        assert parses == [(fixture_tree / "fx_entry.py").read_bytes()]

    def test_no_cache_run_writes_no_entry(self, tmp_path, monkeypatch, capsys):
        import repro.harness.engine as engine_mod
        from repro.harness import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine_mod, "_salt_recipe", None)
        monkeypatch.setattr(engine_mod, "_code_salt", None)
        monkeypatch.setattr(engine_mod, "_CANDIDATES_BY_DIGEST", {})
        cli.main(["tab01", "--no-cache", "--cache-dir", str(tmp_path / "cache")])
        assert engine_mod._salt_recipe is not None  # the walk did run
        assert list(tmp_path.iterdir()) == []


class TestTraceStore:
    """Stored traces: a hit is the generated trace, and an entry that is
    missing, torn, truncated, renamed or written under another key is a
    miss."""

    ARGS = ("lbm", 500, 3, "pruned")

    def _filled(self, tmp_path, salt="generator-salt"):
        store = TraceStore(tmp_path / "trace", salt)
        key = store.key(*self.ARGS)
        store.put(key, self._generated())
        return store, key

    def _generated(self):
        app, n_insts, seed, instrument = self.ARGS
        return generate_trace(
            PROFILES[app], n_insts, seed, instrument=instrument, packed=True
        )

    def test_hit_is_the_generated_trace(self, tmp_path):
        store, key = self._filled(tmp_path)
        assert store.get(key) == self._generated()
        assert [p.name for p in store.root.iterdir()] == [f"{key}.trace"]
        # About nine bytes per event, plus a short header.
        size = (store.root / f"{key}.trace").stat().st_size
        assert 0 < size - 9 * len(self._generated()) < 100

    def test_every_key_part_changes_the_key(self, tmp_path):
        store = TraceStore(tmp_path, "a")
        keys = {store.key(*self.ARGS), TraceStore(tmp_path, "b").key(*self.ARGS)}
        for i, other in enumerate(("namd", 501, 4, None)):
            args = list(self.ARGS)
            args[i] = other
            keys.add(store.key(*args))
        assert len(keys) == 6

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path / "trace", "generator-salt")
        assert store.get(store.key(*self.ARGS)) is None

    @pytest.mark.parametrize("cut", [10, 80, -1, -9])
    def test_torn_or_truncated_entry_is_a_miss(self, tmp_path, cut):
        store, key = self._filled(tmp_path)
        path = store.root / f"{key}.trace"
        path.write_bytes(path.read_bytes()[:cut])
        assert store.get(key) is None

    def test_corrupt_codes_are_a_miss(self, tmp_path):
        store, key = self._filled(tmp_path)
        path = store.root / f"{key}.trace"
        data = bytearray(path.read_bytes())
        data[len(store._header(key, len(self._generated())))] = ord("q")  # code 0
        path.write_bytes(bytes(data))
        assert store.get(key) is None

    def test_renamed_entry_is_a_miss(self, tmp_path):
        store, key = self._filled(tmp_path)
        other = store.key("lbm", 500, 4, "pruned")  # another seed
        (store.root / f"{key}.trace").rename(store.root / f"{other}.trace")
        assert store.get(other) is None

    def test_entry_of_another_generator_salt_is_a_miss(self, tmp_path):
        old, key = self._filled(tmp_path, salt="old")
        new = TraceStore(old.root, "new")
        new_key = new.key(*self.ARGS)
        shutil.copy(old.root / f"{key}.trace", new.root / f"{new_key}.trace")
        assert new.get(new_key) is None
        assert old.get(key) == self._generated()

    def test_failed_write_costs_only_a_regeneration(self, tmp_path):
        (tmp_path / "trace").write_text("not a directory")
        store = TraceStore(tmp_path / "trace", "generator-salt")
        key = store.key(*self.ARGS)
        store.put(key, self._generated())
        assert store.get(key) is None

    def test_multicore_point_stores_one_trace_per_core(self, tmp_path, monkeypatch):
        from repro.workloads import synthetic

        machine = skylake_machine(scaled=True)
        point = MulticorePoint(
            ("lbm", "namd"), ("lbm", "namd"), cwsp(), machine, None, N, 1
        )
        store = TraceStore(tmp_path / "trace", "generator-salt")
        want = json.dumps(compute_point(point).to_dict())
        assert json.dumps(compute_point(point, traces=store).to_dict()) == want
        assert len(list(store.root.iterdir())) == 2

        def no_generation(*args, **kwargs):
            raise AssertionError("a stored trace was generated again")

        monkeypatch.setattr(synthetic, "generate_trace", no_generation)
        assert json.dumps(compute_point(point, traces=store).to_dict()) == want

    def test_generator_salt_covers_only_the_generator(self):
        from repro.harness.engine import _TRACE_ENTRY_MODULES, compute_salt_recipe

        recipe = compute_salt_recipe(_TRACE_ENTRY_MODULES)
        assert sorted(recipe["modules"]) == [
            "repro.arch.trace",
            "repro.workloads.profiles",
            "repro.workloads.synthetic",
        ]
        assert trace_salt() == recipe_salt(recipe) != code_salt()


# ----------------------------------------------------------------------
# parallel_map shutdown semantics (issue 10 satellite): worker death
# and KeyboardInterrupt must reap every worker and keep flushed results.
# ----------------------------------------------------------------------
def _die_or_echo(task):
    import os as _os
    import signal as _signal
    import time as _time

    if task == "die":
        _time.sleep(1.0)  # let the other worker finish + flush first
        _os.kill(_os.getpid(), _signal.SIGKILL)
    return task


def _interrupt_or_echo(task):
    import time as _time

    if task == "boom":
        _time.sleep(1.0)
        raise KeyboardInterrupt
    return task


def _live_children():
    import multiprocessing

    return {p for p in multiprocessing.active_children() if p.is_alive()}


class TestParallelMapShutdown:
    def test_worker_death_raises_and_keeps_flushed_results(self):
        from repro.harness.engine import WorkerCrash

        baseline = _live_children()
        flushed = {}
        tasks = ["die", "a", "b", "c", "d"]
        with pytest.raises(WorkerCrash, match="worker process died"):
            parallel_map(
                _die_or_echo, tasks, jobs=2, ordered=False,
                on_result=lambda i, r: flushed.__setitem__(i, r),
            )
        # Partial results were streamed out before the crash...
        assert set(flushed.values()) == {"a", "b", "c", "d"}
        assert all(tasks[i] == r for i, r in flushed.items())
        # ...and no worker process outlives the call.
        assert _live_children() <= baseline

    def test_keyboard_interrupt_reaps_workers(self):
        baseline = _live_children()
        flushed = {}
        with pytest.raises(KeyboardInterrupt):
            parallel_map(
                _interrupt_or_echo, ["boom", "a", "b", "c"], jobs=2,
                ordered=False,
                on_result=lambda i, r: flushed.__setitem__(i, r),
            )
        assert set(flushed.values()) == {"a", "b", "c"}
        assert _live_children() <= baseline

    def test_empty_task_list_never_spins_a_pool(self):
        assert parallel_map(_square, [], jobs=4) == []
