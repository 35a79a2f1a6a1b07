"""Campaign lockfiles: canonical, CI-verified provenance.

A lockfile is the complete manifest of one campaign: the spec (and its
digest), the dependency-sliced code salt plus the exact recipe that
produced it, the environment the results were computed under, every
point's content-addressed cache key in plan order, the shard layout,
and a digest over the spliced result set.  Byte-canonical: built from
the same spec, code, and results, the file is byte-identical -- no
timestamps, no host names, no dict-order dependence.

``--frozen`` replays a campaign from its lockfile and fails loudly on
*any* divergence: spec digest, salt/recipe, environment, point keys,
or result bytes.  What is in the digest is documented in DESIGN.md
section 9.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.explore.spec import SweepSpec
from repro.harness.engine import _write_atomic

LOCKFILE_VERSION = 1


def environment_provenance() -> Dict[str, str]:
    """The toolchain facts a byte-identical replay depends on.

    numpy's version comes from its installed metadata unless numpy is
    already loaded: a fully cached campaign or replay never imports it,
    and the import would cost several times the metadata read.
    """
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        version = numpy.__version__
    else:
        import importlib.metadata

        version = importlib.metadata.version("numpy")
    return {
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "numpy": version,
    }


def results_digest(ordered_results: List[Dict[str, object]]) -> str:
    """Digest of the spliced metric set, in plan order.

    *ordered_results* is ``[{"key": cache_key, "stats": stats_dict}]``;
    the digest covers the canonical JSON of that list, so a single
    flipped metric bit anywhere in the campaign changes it.
    """
    canonical = json.dumps(ordered_results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class LockfileDivergence(Exception):
    """A frozen replay did not match its manifest."""


@dataclass
class Lockfile:
    """In-memory form of a campaign manifest."""

    spec: SweepSpec
    code_salt: str
    salt_recipe: Dict[str, object]
    environment: Dict[str, str]
    point_keys: List[str]  # plan order
    shard_size: int
    results_digest: str
    version: int = LOCKFILE_VERSION
    #: Not locked: how the campaign was produced, for humans.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return (len(self.point_keys) + self.shard_size - 1) // self.shard_size

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "campaign": self.spec.name,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "code_salt": self.code_salt,
            "salt_recipe": self.salt_recipe,
            "environment": self.environment,
            "n_points": len(self.point_keys),
            "point_keys": self.point_keys,
            "shards": {"size": self.shard_size, "count": self.n_shards},
            "results_digest": self.results_digest,
            "meta": self.meta,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def save(self, path: Path) -> None:
        # Atomic: a serve daemon and a manual campaign sharing a
        # directory never cross-publish half-written manifests.
        text = self.canonical_json()
        _write_atomic(path, "w", lambda fh: fh.write(text))

    @classmethod
    def load(cls, path: Path) -> "Lockfile":
        data = json.loads(Path(path).read_text())
        if data.get("version") != LOCKFILE_VERSION:
            raise ValueError(f"unsupported lockfile version {data.get('version')}")
        spec = SweepSpec.from_dict(data["spec"])
        if spec.digest() != data["spec_digest"]:
            raise LockfileDivergence(
                "lockfile is internally inconsistent: embedded spec digests to "
                f"{spec.digest()}, manifest records {data['spec_digest']}"
            )
        return cls(
            spec=spec,
            code_salt=data["code_salt"],
            salt_recipe=data["salt_recipe"],
            environment=data["environment"],
            point_keys=list(data["point_keys"]),
            shard_size=data["shards"]["size"],
            results_digest=data["results_digest"],
            meta=data.get("meta", {}),
        )


def check_frozen_preconditions(
    lock: Lockfile,
    current_salt: str,
    current_recipe: Dict[str, object],
    env: Optional[Dict[str, str]] = None,
) -> None:
    """Fail loudly before replaying if the world has moved.

    Divergences here mean the manifest *cannot* reproduce byte-
    identically: the simulation code changed (salt), or the toolchain
    differs (python/numpy).  The error names exactly what drifted.
    """
    problems: List[str] = []
    if current_salt != lock.code_salt:
        changed = [
            name
            for name in sorted(
                set(current_recipe["modules"]) | set(lock.salt_recipe["modules"])
            )
            if current_recipe["modules"].get(name)
            != lock.salt_recipe["modules"].get(name)
        ]
        problems.append(
            f"code salt diverged ({lock.code_salt} -> {current_salt}); "
            f"changed modules: {changed}"
        )
    current_env = env if env is not None else environment_provenance()
    for key in sorted(set(current_env) | set(lock.environment)):
        if current_env.get(key) != lock.environment.get(key):
            problems.append(
                f"environment diverged: {key} "
                f"{lock.environment.get(key)!r} -> {current_env.get(key)!r}"
            )
    if problems:
        raise LockfileDivergence(
            "frozen replay refused:\n  " + "\n  ".join(problems)
        )
