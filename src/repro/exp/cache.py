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
    default when omitted): the first 16 hex characters of
    :attr:`CostModel.digest`, which each model computes once.
    ``model_id`` is a field, so two models with identical constants
    but different names fingerprint apart."""
    return costmodels.resolve(model).digest[:16]


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

    # -- access ----------------------------------------------------------

    def _read(self, name: str, params: Mapping[str, Any],
              schema: str) -> Optional[dict[str, Any]]:
        """The entry for this key under ``schema``, or ``None``."""
        key = self.key(name, params)
        try:
            doc = json.loads(
                (self.root / f"{name}-{key}.json").read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != schema \
                or doc.get("key") != key:
            return None
        return doc

    def _write(self, name: str, params: Mapping[str, Any],
               schema: str, **fields: Any) -> Path:
        """Write one entry under ``schema``; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        key = self.key(name, params)
        path = self.root / f"{name}-{key}.json"
        doc = {"schema": schema, "experiment": name, "key": key,
               "params": dict(params), **fields}
        path.write_text(canonical_json(doc))
        return path

    def load(self, name: str,
             params: Mapping[str, Any]) -> Optional[Result]:
        """Cached :class:`Result` for this key, or ``None`` on a miss."""
        doc = self._read(name, params, SCHEMA)
        if doc is None:
            return None
        try:
            return Result.from_dict(doc["result"])
        except Exception:
            return None

    def store(self, name: str, params: Mapping[str, Any],
              result: Result) -> Path:
        """Write one entry; returns its path."""
        return self._write(
            name, params, SCHEMA,
            cost_model_id=costmodels.resolve(
                params.get("cost_model")).model_id,
            cost_model_fingerprint=self._cost_fp,
            code_fingerprint=self._code_fp,
            result=result.to_dict())

    # -- negative entries -------------------------------------------------

    def store_error(self, name: str, params: Mapping[str, Any],
                    error: str) -> Path:
        """Remember a deterministic failure for this key.

        The sentinel lives at the same path the Result would, under the
        distinct :data:`ERROR_SCHEMA`, so :meth:`load` reads it as a
        miss (schema mismatch) and can never serve it as a Result.
        """
        return self._write(name, params, ERROR_SCHEMA, error=error)

    def load_error(self, name: str,
                   params: Mapping[str, Any]) -> Optional[str]:
        """The remembered error message for this key, or ``None``."""
        doc = self._read(name, params, ERROR_SCHEMA)
        error = doc.get("error") if doc is not None else None
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
