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

**Layout.**  The cache stores response bytes.  One file per
(experiment, key), ``{name}-{key}.json``, holds one header line of
compact sorted-key JSON — the schema (``repro-cache/2``), the key, the
key material (experiment, params, cost-model id and fingerprints, code
fingerprint) and the ``sha256`` of the payload — then the payload.  For
a Result the payload is exactly ``Result.to_json()``, the body ``repro
serve`` answers with, so the service answers a hit with the bytes as
read, decoding and encoding nothing; the runner decodes a hit with
``Result.from_json``.  :meth:`ResultCache.load` reads the
file once, splits it at the first newline and returns the payload only
when the header is a JSON object with the expected schema and key and
its ``sha256`` matches the payload; anything else — an unreadable file,
a header that is not a JSON object, another schema or key, a digest
mismatch (a torn write, a changed or missing byte) — reads as a miss.
A hit never serves bytes other than those stored.

The ``repro-cache/1`` layout (one JSON document holding the decoded
Result) has no reader: every key folds in the code fingerprint, a hash
of every ``repro`` source file including this one, so no entry written
in that layout has a key the current code computes.

**Negative entries.**  A request that failed with a *deterministic*
simulation error (a ``ReproError``: bad config, modelled deadlock, …)
may be remembered via :meth:`ResultCache.store_error` so a long-lived
service does not recompute a failure per retry.  Error sentinels use
the same layout under a distinct schema (``repro-cache-error/2``, the
message as payload) at the same path a Result would use, so
:meth:`ResultCache.load` — whose schema check rejects them — can
**never** serve one as a Result; only the explicit
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

SCHEMA = "repro-cache/2"
#: Negative entries (deterministic failures) — never a Result.
ERROR_SCHEMA = "repro-cache-error/2"


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

    def _read(self, name: str, key: str,
              schema: str) -> Optional[bytes]:
        """The verified payload for this key under ``schema``, or
        ``None``."""
        try:
            raw = (self.root / f"{name}-{key}.json").read_bytes()
            head, _, payload = raw.partition(b"\n")
            header = json.loads(head)
        except (OSError, ValueError):
            return None
        if not isinstance(header, dict) \
                or header.get("schema") != schema \
                or header.get("key") != key \
                or header.get("sha256") \
                != hashlib.sha256(payload).hexdigest():
            return None
        return payload

    def _write(self, name: str, key: str, params: Mapping[str, Any],
               schema: str, payload: bytes) -> Path:
        """Write one entry under ``schema``; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{name}-{key}.json"
        header = json.dumps(
            {"schema": schema, "experiment": name, "key": key,
             "params": dict(params),
             "cost_model_id": costmodels.resolve(
                 params.get("cost_model")).model_id,
             "cost_model_fingerprint": self._cost_fp,
             "code_fingerprint": self._code_fp,
             "sha256": hashlib.sha256(payload).hexdigest()},
            sort_keys=True, separators=(",", ":"))
        path.write_bytes(header.encode() + b"\n" + payload)
        return path

    # Each access takes the entry's key, ``key(name, params)``: a caller
    # computes it once and passes it to every access.

    def load(self, name: str, key: str) -> Optional[bytes]:
        """The stored body (``Result.to_json()`` bytes) for this key,
        or ``None`` on a miss."""
        return self._read(name, key, SCHEMA)

    def store(self, name: str, key: str, params: Mapping[str, Any],
              body: bytes) -> Path:
        """Write one entry holding ``body``, a Result's ``to_json()``
        bytes; returns its path."""
        return self._write(name, key, params, SCHEMA, body)

    # -- negative entries -------------------------------------------------

    def store_error(self, name: str, key: str, params: Mapping[str, Any],
                    error: str) -> Path:
        """Remember a deterministic failure for this key.

        The sentinel lives at the same path the Result would, under the
        distinct :data:`ERROR_SCHEMA`, so :meth:`load` reads it as a
        miss (schema mismatch) and can never serve it as a Result.
        """
        return self._write(name, key, params, ERROR_SCHEMA,
                           error.encode("utf-8"))

    def load_error(self, name: str, key: str) -> Optional[str]:
        """The remembered error message for this key, or ``None``."""
        payload = self._read(name, key, ERROR_SCHEMA)
        return payload.decode("utf-8") if payload is not None else None

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
