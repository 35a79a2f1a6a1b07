"""Always-on incremental results service: ``python -m repro.harness serve``.

A long-lived daemon that plans the experiment grid once, then keeps
the published results continuously correct under live code and spec
edits by recomputing *only the dirty delta*:

1. **Watch.**  Every poll tick the daemon re-derives the dependency-
   sliced salt closure from disk (:func:`compute_salt_recipe`) and
   content-hashes every file in it, plus the contract-excluded module
   (checkpoint) and the experiment-spec module.  No inotify:
   plain sha256 polling, so it works on any filesystem.
2. **Classify.**  On change, the grid is re-planned and every point is
   classified clean or dirty through the content-addressed cache keys
   (point + new salt): an edit to a salted module flips the salt, so
   exactly the affected points miss; an edit to a contract-excluded
   module leaves every key warm and recomputes *zero* points.
3. **Recompute.**  Dirty points fan out over the worker pool.  Workers
   are **spawned fresh** (``mp_context="spawn"``, pool forced even for
   ``--jobs 1``) so they import the edited simulator code from disk
   rather than inheriting this process's stale modules.
4. **Publish.**  Figure JSON artifacts and the serve-owned
   EXPERIMENTS.md (one :func:`splice_section` block per experiment)
   are rewritten atomically (pid-suffixed temp + ``os.replace``), and
   one canonical-JSON line is appended to the **generation ledger**
   (``generations.jsonl``): generation number, changed modules per the
   salt recipe, dirty/clean/planned counts, per-phase wall time, cache
   hit rate, and a digest over the published artifact bytes.  A no-op
   edit provably republishes byte-identical artifacts (same digest).

Subscribers (``python -m repro.harness subscribe``, or a campaign via
``python -m repro.explore --live-server``) follow the monotonically
numbered ledger and ``status.json`` -- deltas, not polling races.

Artifacts are pure functions of the results: no timestamps or
generation numbers, so the ledger's ``artifacts_digest`` is the
byte-identity witness CI greps for.

Known restart-required edits: the daemon reloads the spec module when
its file changes, but structural edits to the point dataclasses
themselves (``repro.harness.spec``) or to config-class *fields* need a
restart -- the planning pass runs in this process.  Behavioral edits
to any salted simulator module are the designed-for case.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.engine import (
    CACHE_DIR,
    Engine,
    ResultCache,
    compute_salt_recipe,
    module_file,
    recipe_salt,
)
from repro.harness.experiments_md import experiment_section, splice_section
from repro.perf.timers import PhaseTimer

LEDGER_NAME = "generations.jsonl"
STATUS_NAME = "status.json"
ARTIFACTS_DIR = "artifacts"
DEFAULT_SPECS_MODULE = "repro.harness.figures"

#: Seed document for the serve-owned EXPERIMENTS.md (deterministic: no
#: timestamps -- the artifacts digest depends on it).
_EXPERIMENTS_HEADER = (
    "# Live results — maintained by `python -m repro.harness serve`\n"
    "\n"
    "Each experiment below lives between autogen markers and is\n"
    "re-spliced whenever its results change; the serving daemon's\n"
    "generation ledger (`generations.jsonl`) records what changed and\n"
    "what was recomputed.\n"
)


@dataclasses.dataclass
class ServeConfig:
    """Everything a :class:`ResultsServer` needs, as plain data."""

    names: Optional[List[str]] = None  # experiment names (None = all)
    out_dir: str = "serve-out"
    cache_dir: str = CACHE_DIR
    jobs: int = 1
    n_insts: Optional[int] = None
    seed: int = 1
    interval: float = 2.0
    specs_module: str = DEFAULT_SPECS_MODULE
    #: Exit after this many generations (None = run forever).  CI and
    #: the e2e tests use it to bound the daemon's lifetime.
    max_generations: Optional[int] = None


def _atomic_write(path: Path, text: str) -> None:
    """Publish *text* at *path* without readers ever seeing a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class ResultsServer:
    """The serve loop: watch -> classify -> recompute delta -> publish."""

    def __init__(
        self,
        config: ServeConfig,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.say = progress if progress is not None else lambda _msg: None
        self.out = Path(config.out_dir)
        self.cache = ResultCache(config.cache_dir)
        #: The salt walk's parse store, held apart from ``self.cache`` so
        #: a wrapper swapped in for the cache need not carry it.
        self.scans = self.cache.scans
        # Import the spec registry up front so unknown experiment names
        # fail at boot, and so the module's __file__ lands in the watch
        # set even for registries outside the repro tree.
        self._specs_mod = importlib.import_module(config.specs_module)
        self._validate_names()
        #: Number of generations produced by *this* process.
        self.produced = 0
        #: Next generation number; continues a prior daemon's ledger so
        #: subscribers see one monotone sequence across restarts.
        self.generation = self._last_ledger_generation() + 1

    # -- spec registry -------------------------------------------------
    def _validate_names(self) -> None:
        specs = getattr(self._specs_mod, "SPECS")
        unknown = [n for n in (self.config.names or []) if n not in specs]
        if unknown:
            raise SystemExit(
                f"unknown experiment(s) {unknown}; "
                f"{self.config.specs_module} offers {list(specs)}"
            )

    def _load_specs(self, reload: bool) -> Tuple[List, List[str]]:
        """The (specs, names) to serve, optionally re-imported from disk."""
        if reload:
            self._specs_mod = importlib.reload(self._specs_mod)
        registry = getattr(self._specs_mod, "SPECS")
        names = self.config.names or list(registry)
        missing = [n for n in names if n not in registry]
        if missing:
            raise RuntimeError(
                f"experiment(s) {missing} vanished from "
                f"{self.config.specs_module} after reload"
            )
        return [registry[n] for n in names], names

    # -- watching ------------------------------------------------------
    def watch_paths(self) -> Dict[str, Path]:
        """Module name -> file for everything that can trigger a generation.

        The salt recipe's module closure (re-derived from disk, so a
        newly added import joins the watch set on the next tick), the
        contract-excluded modules (their edits must trigger a -- zero
        dirty -- generation to prove the exclusion), and the experiment
        spec module.
        """
        recipe = compute_salt_recipe(scans=self.scans)
        names = set(recipe["modules"]) | set(recipe["excluded"])
        names.add(self.config.specs_module)
        paths: Dict[str, Path] = {}
        for name in sorted(names):
            path = module_file(name)
            if path is None:
                module = sys.modules.get(name)
                file = getattr(module, "__file__", None) if module else None
                path = Path(file) if file else None
            if path is not None:
                paths[name] = path
        return paths

    def snapshot(self) -> Dict[str, Optional[str]]:
        """Content hash per watched module (None for a vanished file)."""
        digests: Dict[str, Optional[str]] = {}
        for name, path in self.watch_paths().items():
            try:
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                digests[name] = None
        return digests

    # -- the generation ------------------------------------------------
    def run_generation(self, reason: str, changed: List[str]) -> Dict[str, object]:
        """One incremental recomputation; returns the ledger entry."""
        timer = PhaseTimer()
        with timer.phase("plan"):
            recipe = compute_salt_recipe(scans=self.scans)
            salt = recipe_salt(recipe)
            specs, names = self._load_specs(
                reload=self.config.specs_module in changed
            )
            engine = Engine(
                jobs=self.config.jobs,
                cache=self.cache,
                seed=self.config.seed,
                n_insts=self.config.n_insts,
                salt=salt,
                mp_context="spawn",
                always_pool=True,
            )
            tasks = engine.plan(specs)
        with timer.phase("classify"):
            clean, dirty = engine.classify(tasks)
        self.say(
            f"serve: generation {self.generation} [{reason}] salt {salt}: "
            f"{len(dirty)} dirty / {len(clean)} clean of {len(tasks)} points"
        )
        with timer.phase("simulate"):
            # classify already read the clean results, so each cache
            # entry is read once per generation; only the dirty delta
            # simulates.
            resolved = {**clean, **engine.compute(dirty)}
            executed = len(dirty)
        with timer.phase("reduce"):
            results = engine.reduce(specs, resolved)
        with timer.phase("publish"):
            digest = self.publish(names, results, engine)
        planned = len(tasks)
        entry: Dict[str, object] = {
            "generation": self.generation,
            "reason": reason,
            "salt": salt,
            "changed_modules": sorted(changed),
            "planned": planned,
            "dirty": len(dirty),
            "clean": len(clean),
            "executed": executed,
            "cache_hit_rate": round(len(clean) / planned, 4) if planned else 1.0,
            "phase_seconds": {k: round(v, 3) for k, v in timer.seconds.items()},
            "artifacts_digest": digest,
            "experiments": names,
        }
        self._append_ledger(entry)
        self._write_status(entry, state="serving")
        self.say(
            f"serve: generation {self.generation} published: "
            f"{executed} simulated, artifacts {digest}"
        )
        self.generation += 1
        self.produced += 1
        return entry

    # -- publishing ----------------------------------------------------
    def publish(self, names: List[str], results, engine: Engine) -> str:
        """Atomically rewrite every artifact; returns their joint digest.

        Artifact bytes are pure functions of the results (no
        generation numbers, no timestamps), so an edit that changes no
        result republishes byte-identical files and an unchanged
        digest -- the ledger's no-op witness.
        """
        from repro.harness.cli import artifact_dict

        files: Dict[str, str] = {}
        for name in names:
            payload = artifact_dict(name, results[name], engine)
            files[f"{ARTIFACTS_DIR}/{name}.json"] = (
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        md_path = self.out / "EXPERIMENTS.md"
        document = md_path.read_text() if md_path.exists() else _EXPERIMENTS_HEADER
        for name in names:
            document = splice_section(
                document, f"serve-{name}", experiment_section(results[name])
            )
        files["EXPERIMENTS.md"] = document
        digest = hashlib.sha256()
        for rel in sorted(files):
            digest.update(rel.encode())
            digest.update(b"\0")
            digest.update(files[rel].encode())
            digest.update(b"\0")
        for rel, text in files.items():
            _atomic_write(self.out / rel, text)
        return digest.hexdigest()[:16]

    # -- ledger + status -----------------------------------------------
    @property
    def ledger_path(self) -> Path:
        return self.out / LEDGER_NAME

    def _last_ledger_generation(self) -> int:
        from repro.harness.subscribe import read_entries

        entries = read_entries(self.ledger_path)
        return max((e.get("generation", -1) for e in entries), default=-1)

    def _append_ledger(self, entry: Dict[str, object]) -> None:
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.ledger_path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()

    def _write_status(self, entry: Dict[str, object], state: str) -> None:
        status = {
            "pid": os.getpid(),
            "state": state,
            "generation": entry["generation"],
            "salt": entry["salt"],
            "planned": entry["planned"],
            "dirty": entry["dirty"],
            "clean": entry["clean"],
            "experiments": entry["experiments"],
            "specs_module": self.config.specs_module,
            "cache_dir": str(Path(self.config.cache_dir).resolve()),
            "out_dir": str(self.out.resolve()),
            "ledger": LEDGER_NAME,
        }
        _atomic_write(
            self.out / STATUS_NAME,
            json.dumps(status, indent=2, sort_keys=True) + "\n",
        )

    # -- the loop ------------------------------------------------------
    def _done(self) -> bool:
        limit = self.config.max_generations
        return limit is not None and self.produced >= limit

    def serve_forever(self) -> int:
        """Generation 0, then poll-and-recompute until the limit (if any).

        A failed generation (half-saved spec module, crashed worker)
        is logged and retried on the next tick -- the watch snapshot
        only advances after a generation lands, so the daemon keeps
        trying until the tree is importable and simulable again.
        """
        self.out.mkdir(parents=True, exist_ok=True)
        watch = self.snapshot()
        self.say(
            f"serve: watching {len(watch)} modules, polling every "
            f"{self.config.interval}s (cache {self.config.cache_dir})"
        )
        self.run_generation("initial", [])
        while not self._done():
            time.sleep(self.config.interval)
            current = self.snapshot()
            changed = sorted(
                name
                for name in set(watch) | set(current)
                if watch.get(name) != current.get(name)
            )
            if not changed:
                continue
            try:
                self.run_generation("edit", changed)
            except Exception as exc:
                self.say(
                    f"serve: generation failed ({type(exc).__name__}: {exc}); "
                    "retrying on next tick"
                )
                continue
            watch = current
        self.say(
            f"serve: generation limit ({self.config.max_generations}) reached; "
            "exiting"
        )
        return 0


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Serve live experiment results, recomputing only the "
        "dirty delta as code and specs change.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help="experiments to serve (default: all in the spec module)",
    )
    parser.add_argument(
        "--out", default="serve-out", metavar="DIR",
        help="artifacts + ledger + status directory (default: serve-out)",
    )
    parser.add_argument(
        "--cache-dir", default=CACHE_DIR, metavar="DIR",
        help=f"content-addressed result cache (default: {CACHE_DIR}, "
        "shared with python -m repro.harness and repro.explore)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for dirty points (default: 1; workers are "
        "always spawned fresh so they see edited code)",
    )
    parser.add_argument(
        "--n-insts", type=int, default=None, metavar="N",
        help="trace length override for every experiment",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="S",
        help="trace generation seed (default: 1)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SEC",
        help="content-hash polling interval (default: 2.0)",
    )
    parser.add_argument(
        "--specs-module", default=DEFAULT_SPECS_MODULE, metavar="MODULE",
        help="dotted module exposing a SPECS registry "
        f"(default: {DEFAULT_SPECS_MODULE})",
    )
    parser.add_argument(
        "--max-generations", type=int, default=None, metavar="N",
        help="exit after N generations (default: run forever)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    config = ServeConfig(
        names=args.names or None,
        out_dir=args.out,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        n_insts=args.n_insts,
        seed=args.seed,
        interval=args.interval,
        specs_module=args.specs_module,
        max_generations=args.max_generations,
    )
    server = ResultsServer(config, progress=lambda msg: print(msg, flush=True))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            "serve: interrupted; completed results are cached and the "
            "ledger is consistent",
            flush=True,
        )
        raise SystemExit(130)


if __name__ == "__main__":
    main()
