"""Always-on incremental results service: ``python -m repro.harness serve``.

A long-lived daemon that keeps the published results continuously
correct under live code and spec edits by recomputing *only the dirty
delta*:

1. **Watch.**  Every poll tick the daemon re-derives from disk
   (:func:`compute_salt_recipe`) the module closure of the simulation,
   the experiment-spec module and the publish path, and
   content-hashes every file in it.  No inotify: plain sha256
   polling, so it works on any filesystem.
2. **Classify.**  On change (and once at boot) the daemon forks a child
   that imports ``repro`` and the spec module afresh (so it runs only
   the code now on disk), re-plans the grid and classifies every point
   clean or dirty through the content-addressed cache keys (point + new
   salt): an edit to a salted module flips the salt, so exactly the
   affected points miss; an edit to the spec module that changes no
   point (a comment, say) leaves every key warm and recomputes *zero*
   points.
3. **Recompute.**  Dirty points fan out over a pool forked from the
   child.  Workers read each trace from the
   :class:`~repro.harness.engine.TraceStore` under ``<cache-dir>/trace/``
   when the generator's own salt still matches, so an edit outside the
   generator regenerates no trace.
4. **Publish.**  Figure JSON artifacts and the serve-owned
   EXPERIMENTS.md (one :func:`splice_section` block per experiment)
   are rewritten atomically (pid-suffixed temp + ``os.replace``); once
   the daemon has reaped the child, it appends one canonical-JSON line
   to the **generation ledger** (``generations.jsonl``): generation
   number, the result and trace salts, changed modules per the salt
   recipe, dirty/clean/planned counts, per-phase wall time, cache hit
   rate, and a digest over the published artifact bytes.  A no-op edit
   provably republishes byte-identical artifacts (same digest).

Subscribers (``python -m repro.harness subscribe``, or a campaign via
``python -m repro.explore --live-server``) follow the monotonically
numbered ledger and ``status.json`` -- deltas, not polling races.

Artifacts are pure functions of the results: no timestamps or
generation numbers, so the ledger's ``artifacts_digest`` is the
byte-identity witness CI greps for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness.engine import (
    _SALT_ENTRY_MODULES,
    CACHE_DIR,
    Engine,
    ResultCache,
    TraceStore,
    _write_atomic,
    compute_salt_recipe,
    recipe_salt,
    trace_salt,
)
from repro.harness.experiments_md import experiment_section, splice_section
from repro.perf.timers import PhaseTimer

LEDGER_NAME = "generations.jsonl"
STATUS_NAME = "status.json"
ARTIFACTS_DIR = "artifacts"
DEFAULT_SPECS_MODULE = "repro.harness.figures"

#: The publish path: this module, and the artifact writer it imports
#: lazily.  Their closure (the EXPERIMENTS.md renderer, the report and
#: spec types, the engine) shapes the published bytes.
_PUBLISH_MODULES = ("repro.harness.serve", "repro.harness.cli")

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
        registry = importlib.import_module(config.specs_module).SPECS
        self.names = config.names or list(registry)
        unknown = [n for n in self.names if n not in registry]
        if unknown:
            raise SystemExit(
                f"unknown experiment(s) {unknown}; "
                f"{config.specs_module} offers {list(registry)}"
            )
        self.specs = [registry[n] for n in self.names]
        #: Number of generations produced by *this* process.
        self.produced = 0
        #: Next generation number; continues a prior daemon's ledger so
        #: subscribers see one monotone sequence across restarts.
        self.generation = self._last_ledger_generation() + 1

    # -- watching ------------------------------------------------------
    def snapshot(self) -> Dict[str, Optional[str]]:
        """Content hash per watched module (None for a vanished file).

        One walk from disk (so a newly added import joins the watch set
        on the next tick) over the module closure of the simulation (the
        salt's entries), the experiment spec module and the publish
        path: this module and the artifact writer it imports lazily.  A
        spec module outside the ``repro`` tree the walk follows is
        hashed by its file.
        """
        name = self.config.specs_module
        recipe = compute_salt_recipe(
            (*_SALT_ENTRY_MODULES, name, *_PUBLISH_MODULES), self.scans
        )
        snapshot: Dict[str, Optional[str]] = dict(recipe["modules"])
        file = getattr(sys.modules.get(name), "__file__", None)
        if name not in snapshot and file:
            try:
                snapshot[name] = hashlib.sha256(Path(file).read_bytes()).hexdigest()
            except OSError:
                snapshot[name] = None
        return snapshot

    # -- the generation ------------------------------------------------
    def build_generation(
        self, reason: str, changed: List[str], timer: Optional[PhaseTimer] = None
    ) -> Dict[str, object]:
        """One incremental recomputation in this process, through
        :meth:`Engine.run`; returns the ledger entry.  *timer* may hold time
        already spent on the ``plan`` phase (the generation child's imports)."""
        timer = PhaseTimer() if timer is None else timer
        with timer.phase("plan"):
            salt = recipe_salt(compute_salt_recipe(scans=self.scans))
            generator_salt = trace_salt(self.scans)
            engine = Engine(
                jobs=self.config.jobs,
                cache=self.cache,
                seed=self.config.seed,
                n_insts=self.config.n_insts,
                salt=salt,
                # Traces outlive generations: an edit outside the
                # generator's closure keeps every one of their keys.
                traces=TraceStore(
                    Path(self.config.cache_dir) / "trace", generator_salt
                ),
            )
        # The content-addressed keys make only the dirty delta simulate.
        results = engine.run(self.specs)
        info = engine.last_run
        self.say(
            f"serve: generation {self.generation} [{reason}] salt {salt}: "
            f"{info.describe()}"
        )
        with timer.phase("publish"):
            digest = self.publish(self.names, results, engine)
        # The engine's phases, with the imports and salt walks before
        # the run counted into ``plan``.
        seconds = info.phases.seconds
        seconds["plan"] += timer.seconds["plan"]
        seconds["publish"] = timer.seconds["publish"]
        return {
            "generation": self.generation,
            "reason": reason,
            "salt": salt,
            "trace_salt": generator_salt,
            "changed_modules": sorted(changed),
            "planned": info.planned,
            "dirty": info.simulated,
            "clean": info.cached,
            "executed": info.runs,
            "cache_hit_rate": (
                round(info.cached / info.planned, 4) if info.planned else 1.0
            ),
            "phase_seconds": {k: round(v, 3) for k, v in seconds.items()},
            "artifacts_digest": digest,
            "experiments": self.names,
        }

    def fork_generation(self, reason: str, changed: List[str]) -> int:
        """Build a generation in a child (:func:`_fresh_generation`); once it
        is reaped, record its entry and return its exit code.  An interrupt
        is passed on to the child, which reaps its workers, and re-raised."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_fresh_generation,
            args=(self.config, self.say, reason, changed, writer),
        )
        child.start()
        try:
            writer.close()
            entry = reader.recv()
        except EOFError:
            pass  # the child died without an entry; its exit code says how
        except KeyboardInterrupt:
            if child.is_alive():
                os.kill(child.pid, signal.SIGINT)
            raise
        finally:
            reader.close()
            child.join()
        if child.exitcode != 0:  # it exits 0 only once its entry is sent
            return child.exitcode
        self._append_ledger(entry)
        self._write_status(entry)
        self.say(
            f"serve: generation {self.generation} published: "
            f"{entry['dirty']} simulated in {entry['executed']} runs, "
            f"artifacts {entry['artifacts_digest']}"
        )
        self.generation += 1
        self.produced += 1
        return 0

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
            _write_atomic(self.out / rel, "w", lambda fh: fh.write(text))
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

    def _write_status(self, entry: Dict[str, object]) -> None:
        status = {
            "pid": os.getpid(),
            "state": "serving",
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
        text = json.dumps(status, indent=2, sort_keys=True) + "\n"
        _write_atomic(self.out / STATUS_NAME, "w", lambda fh: fh.write(text))

    # -- the loop ------------------------------------------------------
    def _done(self) -> bool:
        limit = self.config.max_generations
        return limit is not None and self.produced >= limit

    def serve_forever(self) -> int:
        """Generation 0, then poll-and-recompute until the limit (if any).

        A failed generation 0 ends the daemon; a later one (half-saved
        module, crashed worker) is logged and retried on the next tick --
        the watch snapshot only advances after a generation lands, so the
        daemon keeps trying until the tree is importable and simulable
        again.
        """
        self.out.mkdir(parents=True, exist_ok=True)
        watch = self.snapshot()
        self.say(
            f"serve: watching {len(watch)} modules, polling every "
            f"{self.config.interval}s (cache {self.config.cache_dir})"
        )
        code = self.fork_generation("initial", [])
        if code != 0:
            raise SystemExit(f"serve: generation 0 failed (child exit {code})")
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
            code = self.fork_generation("edit", changed)
            if code != 0:
                self.say(
                    f"serve: generation failed (child exit {code}); "
                    "retrying on next tick"
                )
                continue
            watch = current
        self.say(
            f"serve: generation limit ({self.config.max_generations}) reached; "
            "exiting"
        )
        return 0


def _interrupt_once(signum, frame) -> None:
    """A generation child's SIGINT handler: the first unwinds it, reaping its
    pool; later ones (Ctrl-C reaches the group, and the daemon passes its
    own on) are ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def _fresh_generation(config, progress, reason, changed, conn) -> None:
    """A generation child: drop every ``repro`` module and the spec module
    from ``sys.modules``, so the imports below (of this very module too,
    timed as ``plan``) read the files now on disk, build the generation
    and send its ledger entry over *conn*."""
    signal.signal(signal.SIGINT, _interrupt_once)
    try:
        timer = PhaseTimer()
        with timer.phase("plan"):
            for name in list(sys.modules):
                if name.split(".")[0] == "repro" or name == config.specs_module:
                    del sys.modules[name]
            importlib.invalidate_caches()
            from repro.harness.serve import ResultsServer as FreshServer

            server = FreshServer(config, progress)
        conn.send(server.build_generation(reason, changed, timer))
    except KeyboardInterrupt:
        sys.exit(130)


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
        help="worker processes for dirty points (default: 1)",
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
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.n_insts is not None and args.n_insts < 1:
        parser.error("--n-insts must be at least 1")
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
