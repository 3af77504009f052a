"""On-disk result cache under ``results/cache/``.

``python -m repro all`` re-runs only what changed: a cached result is
reused when the *key* matches, and the key folds in everything a result
depends on —

* the experiment name,
* the resolved parameters (canonical JSON),
* the cost-model fingerprint (any change to a default timing constant
  invalidates every cached result), plus the ``model_id`` and constants
  digest of the model the run actually prices under (the
  ``cost_model`` parameter resolved through
  :mod:`repro.cpu.costmodels`),
* the code fingerprint (a content hash over every ``repro`` source
  module — edit any simulator file and the cache misses).

Entries are one JSON file per (experiment, key) holding the serialized
:class:`~repro.exp.result.Result` plus the key material for debugging.
Corrupt or stale-schema entries read as misses.

**Negative entries.**  A request that failed with a *deterministic*
simulation error (a ``ReproError``: bad config, modelled deadlock, …)
may be remembered via :meth:`ResultCache.store_error` so a long-lived
service does not recompute a failure per retry.  Error sentinels carry
a distinct schema (``repro-cache-error/1``) at the same path a Result
would use, so :meth:`ResultCache.load` — whose schema check rejects
them — can **never** serve one as a Result; only the explicit
:meth:`ResultCache.load_error` probe sees them, and a later
:meth:`ResultCache.store` of a real Result overwrites the sentinel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.exp.result import Result, canonical_json

SCHEMA = "repro-cache/1"
#: Negative entries (deterministic failures) — never a Result.
ERROR_SCHEMA = "repro-cache-error/1"


def default_cache_dir() -> Path:
    """``<repo>/results/cache`` next to the installed package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "results" / "cache"


def cost_model_fingerprint(model: Optional[CostModel] = None) -> str:
    """Digest of every timing constant of ``model`` (the registry's
    default when omitted).  ``model_id`` is a field, so two models with
    identical constants but different names fingerprint apart."""
    doc = dataclasses.asdict(costmodels.resolve(model))
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def registry_fingerprint() -> str:
    """Digest over *every* registered model — any constant of any
    model, or the registered set itself, changing invalidates keys
    that fold this in."""
    doc = {name: dataclasses.asdict(costmodels.get_model(name))
           for name in costmodels.model_names()}
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash over every ``repro`` source file (path + bytes)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed result store."""

    def __init__(self, root: Union[str, Path, None] = None,
                 cost_fingerprint: Optional[str] = None,
                 code_version: Optional[str] = None) -> None:
        self.root = Path(root) if root else default_cache_dir()
        self._cost_fp = cost_fingerprint or cost_model_fingerprint()
        self._code_fp = code_version or code_fingerprint()

    # -- keys ------------------------------------------------------------

    def key(self, name: str, params: Mapping[str, Any]) -> str:
        model = costmodels.resolve(params.get("cost_model"))
        material = json.dumps(
            {
                "experiment": name,
                "params": dict(params),
                "cost_model": self._cost_fp,
                # The model the run actually prices under: its stable
                # id plus a digest of its constants, so renaming a
                # model and perturbing one both miss.
                "cost_model_id": model.model_id,
                "cost_model_fp": cost_model_fingerprint(model),
                "code": self._code_fp,
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(material).hexdigest()[:24]

    def path_for(self, name: str, params: Mapping[str, Any]) -> Path:
        return self.root / f"{name}-{self.key(name, params)}.json"

    # -- access ----------------------------------------------------------

    def load(self, name: str,
             params: Mapping[str, Any]) -> Optional[Result]:
        """Cached :class:`Result` for this key, or ``None`` on a miss."""
        path = self.path_for(name, params)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if doc.get("schema") != SCHEMA or doc.get("key") != self.key(
                name, params):
            return None
        try:
            return Result.from_dict(doc["result"])
        except Exception:
            return None

    def store(self, name: str, params: Mapping[str, Any],
              result: Result) -> Path:
        """Write one entry; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name, params)
        doc = {
            "schema": SCHEMA,
            "experiment": name,
            "key": self.key(name, params),
            "params": dict(params),
            "cost_model_id":
                costmodels.resolve(params.get("cost_model")).model_id,
            "cost_model_fingerprint": self._cost_fp,
            "code_fingerprint": self._code_fp,
            "result": result.to_dict(),
        }
        path.write_text(canonical_json(doc))
        return path

    # -- negative entries -------------------------------------------------

    def store_error(self, name: str, params: Mapping[str, Any],
                    error: str) -> Path:
        """Remember a deterministic failure for this key.

        The sentinel lives at the same path the Result would, under the
        distinct :data:`ERROR_SCHEMA`, so :meth:`load` reads it as a
        miss (schema mismatch) and can never serve it as a Result.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name, params)
        doc = {
            "schema": ERROR_SCHEMA,
            "experiment": name,
            "key": self.key(name, params),
            "params": dict(params),
            "error": error,
        }
        path.write_text(canonical_json(doc))
        return path

    def load_error(self, name: str,
                   params: Mapping[str, Any]) -> Optional[str]:
        """The remembered error message for this key, or ``None``."""
        path = self.path_for(name, params)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if doc.get("schema") != ERROR_SCHEMA or doc.get("key") != self.key(
                name, params):
            return None
        error = doc.get("error")
        return error if isinstance(error, str) else None

    def clear(self, name: Optional[str] = None) -> int:
        """Drop every entry (or just one experiment's)."""
        if not self.root.is_dir():
            return 0
        pattern = f"{name}-*.json" if name else "*.json"
        removed = 0
        for path in self.root.glob(pattern):
            path.unlink()
            removed += 1
        return removed
