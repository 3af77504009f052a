"""The experiment service: admission, coalescing, shed, health.

:class:`ExperimentService` glues the serve tier together around one
asyncio event loop.  Per request (see ``docs/serving.md`` for the
state machine):

1. **quarantine check** — fingerprints that exhausted their crash
   retries are refused outright (422) until an operator clears them;
2. **cache fast-path** — experiment requests probe the shared
   :class:`~repro.exp.cache.ResultCache` first, under the request's
   fingerprint, which is the entry's key: a hit is served
   *before* any shed decision (cached reads are the last tier
   standing) with the stored body bytes as read, decoding nothing,
   and a remembered deterministic failure (negative entry) is
   replayed as the same error, never recomputed;
3. **shed check** — under degradation (recent worker crashes) or
   overload (a full capacity of consecutive rejections) the service
   sheds tiers expensive-first: DSE, then fresh experiment runs —
   with a deterministic ``Retry-After``;
4. **coalescing** — the first in-flight request per fingerprint leads
   and computes; identical concurrent requests join its future and
   receive byte-identical bodies;
5. **admission** — leaders claim a bounded
   :class:`~repro.serve.admission.AdmissionQueue` slot
   (``try_push``); a full gate is a 429 with the tier's deterministic
   ``Retry-After``;
6. **supervised execution** — the leader dispatches to the
   :class:`~repro.serve.pool.WorkerPool` (deadline, crash retry with
   fingerprint-seeded backoff) in an executor thread, then stores the
   body — once it decodes as a Result — or the error sentinel back
   into the cache.

``/healthz`` (always 200) and ``/readyz`` (503 while overloaded)
report the gate, the coalescer, the supervisor scoreboard and p50/p99
service time from a `repro.obs` histogram.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.exp.cache import ResultCache
from repro.exp.result import Result, canonical_json
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionQueue
from repro.serve.coalesce import Coalescer
from repro.serve.pool import Job, Outcome, WorkerPool
from repro.serve.protocol import (TIER_RANK, ServeRequest,
                                  retry_after_s)

HEALTH_SCHEMA = "repro-serve-health/1"

#: How many requests a crash keeps the service in the degraded state
#: (sheds DSE); refreshed by every newly observed crash.
DEGRADE_WINDOW = 32

#: In-memory body memo for dse fingerprints (they have no
#: ResultCache tier); bounded, oldest-first eviction.
BODY_CACHE_LIMIT = 128

#: Shed levels (compare against TIER_RANK): 3 = serve everything,
#: 2 = shed dse, 1 = shed everything uncached.
LEVEL_NORMAL, LEVEL_DEGRADED, LEVEL_CRITICAL = 3, 2, 1


@dataclass
class Response:
    """One HTTP-ready response (the transport adds the raw framing)."""

    status: int
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def json(cls, status: int, doc: Any,
             **headers: str) -> "Response":
        return cls(status=status,
                   body=canonical_json(doc).encode("utf-8"),
                   headers=tuple(sorted(headers.items())))

    @classmethod
    def raw(cls, status: int, body: bytes,
            **headers: str) -> "Response":
        return cls(status=status, body=body,
                   headers=tuple(sorted(headers.items())))


class ExperimentService:
    """Coalescing, admission-controlled front end over a worker pool."""

    def __init__(self, cache: ResultCache, pool: WorkerPool,
                 capacity: int = 8, deadline_s: float = 30.0,
                 degrade_window: int = DEGRADE_WINDOW,
                 coalesce: bool = True) -> None:
        self.cache = cache
        self.pool = pool
        self.deadline_s = deadline_s
        self.degrade_window = degrade_window
        self.coalesce = coalesce
        self.gate = AdmissionQueue(capacity=capacity)
        self.board = Coalescer()
        self.metrics = MetricsRegistry()
        self.quarantined: Set[str] = set()
        self._body_cache: Dict[str, Response] = {}
        self._crash_seen = 0
        self._degrade_budget = 0

    # -- degradation state ------------------------------------------------

    def _observe_crashes(self) -> None:
        crashes = self.pool.counters()["crashes"]
        if crashes > self._crash_seen:
            self._crash_seen = crashes
            self._degrade_budget = self.degrade_window
        elif self._degrade_budget > 0:
            self._degrade_budget -= 1

    @property
    def overloaded(self) -> bool:
        """A full capacity of consecutive rejections = overload."""
        return self.gate.reject_streak >= self.gate.capacity

    @property
    def degraded(self) -> bool:
        return self._degrade_budget > 0

    def shed_level(self) -> int:
        if self.overloaded and self.degraded:
            return LEVEL_CRITICAL
        if self.overloaded or self.degraded:
            return LEVEL_DEGRADED
        return LEVEL_NORMAL

    def status(self) -> str:
        level = self.shed_level()
        if level == LEVEL_CRITICAL:
            return "critical"
        if self.overloaded:
            return "overloaded"
        if self.degraded:
            return "degraded"
        return "ok"

    # -- request flow -----------------------------------------------------

    async def submit(self, request: ServeRequest) -> Response:
        """Run one validated request to an HTTP-ready response."""
        began = time.monotonic()
        self.metrics.count("serve_requests_total", kind=request.kind)
        self._observe_crashes()
        key = request.fingerprint(self.cache)
        response = self._fast_path(request, key)
        if response is None:
            response = await self._coalesced(request, key)
        elapsed_ns = int((time.monotonic() - began) * 1e9)
        self.metrics.observe("serve_request_ns", elapsed_ns)
        self.metrics.count("serve_responses_total",
                           status=response.status)
        return response

    def _fast_path(self, request: ServeRequest,
                   key: str) -> Optional[Response]:
        """Quarantine, memoization and shed checks (no computation)."""
        if key in self.quarantined:
            self.metrics.count("serve_quarantine_refusals_total")
            return Response.json(
                422, {"error": "request fingerprint is quarantined "
                               "after repeated worker crashes",
                      "fingerprint": key},
                **{"X-Repro-Fingerprint": key})
        if request.kind == "experiment":
            body = self.cache.load(request.experiment, key)
            if body is not None:
                self.metrics.count("serve_cache_hits_total")
                return Response.raw(
                    200, body,
                    **{"X-Repro-Fingerprint": key,
                       "X-Repro-Source": "cache"})
            error = self.cache.load_error(request.experiment, key)
            if error is not None:
                self.metrics.count("serve_cache_errors_total")
                return Response.json(
                    422, {"error": error, "cached": True},
                    **{"X-Repro-Fingerprint": key,
                       "X-Repro-Source": "cache"})
        else:
            memo = self._body_cache.get(key)
            if memo is not None:
                self.metrics.count("serve_cache_hits_total")
                return memo
        if request.tier >= self.shed_level():
            self.metrics.count("serve_shed_total", kind=request.kind)
            hint = retry_after_s(request.kind, self.gate.depth,
                                 self.gate.capacity)
            return Response.json(
                503, {"error": f"{request.kind} tier is shed while "
                               f"the service is {self.status()}",
                      "status": self.status()},
                **{"Retry-After": str(hint),
                   "X-Repro-Fingerprint": key})
        return None

    async def _coalesced(self, request: ServeRequest,
                         key: str) -> Response:
        if not self.coalesce:
            # Differential mode (`repro loadtest --no-coalesce`):
            # every request leads; bodies must still be identical.
            return await self._lead(request, key)
        loop = asyncio.get_running_loop()
        future, leader = self.board.join_or_lead(key, loop)
        if not leader:
            self.metrics.count("serve_coalesce_hits_total")
            shared: Response = await future
            headers = dict(shared.headers)
            headers["X-Repro-Source"] = "coalesced"
            return Response(status=shared.status, body=shared.body,
                            headers=tuple(sorted(headers.items())))
        try:
            response = await self._lead(request, key)
        except BaseException as error:
            self.board.abandon(key, error)
            raise
        self.board.resolve_key(key, response)
        return response

    async def _lead(self, request: ServeRequest,
                    key: str) -> Response:
        if not self.gate.try_push():
            hint = retry_after_s(request.kind, self.gate.capacity,
                                 self.gate.capacity)
            return Response.json(
                429, {"error": "admission queue is full",
                      "capacity": self.gate.capacity},
                **{"Retry-After": str(hint),
                   "X-Repro-Fingerprint": key})
        loop = asyncio.get_running_loop()
        job = Job(key=key, kind=request.kind,
                  experiment=request.experiment, params=request.params,
                  deadline_s=self.deadline_s)
        try:
            outcome = await loop.run_in_executor(
                None, self.pool.execute, job)
        finally:
            self.gate.release()
        return self._finish(request, key, outcome)

    def _finish(self, request: ServeRequest, key: str,
                outcome: Outcome) -> Response:
        if outcome.status == "ok":
            body = outcome.body.encode("utf-8")
            if request.kind == "experiment":
                # Store only a body that decodes as a Result.
                Result.from_json(body)
                self.cache.store(request.experiment, key,
                                 request.params_dict, body)
            response = Response.raw(
                200, body,
                **{"X-Repro-Fingerprint": key,
                   "X-Repro-Source": "computed"})
            if request.kind != "experiment":
                self._memoize(key, response)
            return response
        if outcome.status == "error":
            if request.kind == "experiment":
                self.cache.store_error(request.experiment, key,
                                       request.params_dict,
                                       outcome.error)
            self.metrics.count("serve_errors_total")
            return Response.json(
                422, {"error": outcome.error, "cached": False},
                **{"X-Repro-Fingerprint": key})
        if outcome.status == "timeout":
            self.metrics.count("serve_timeouts_total")
            return Response.json(
                504, {"error": outcome.error,
                      "deadline_s": self.deadline_s},
                **{"X-Repro-Fingerprint": key})
        # Crash with the retry budget exhausted: quarantine the key.
        self.quarantined.add(key)
        self.metrics.count("serve_quarantined_total")
        return Response.json(
            500, {"error": outcome.error, "quarantined": True,
                  "attempts": outcome.attempts},
            **{"X-Repro-Fingerprint": key})

    def _memoize(self, key: str, response: Response) -> None:
        if len(self._body_cache) >= BODY_CACHE_LIMIT:
            oldest = next(iter(self._body_cache))
            del self._body_cache[oldest]
        self._body_cache[key] = response

    # -- health -----------------------------------------------------------

    def health_doc(self) -> Dict[str, Any]:
        histogram = self.metrics.histogram("serve_request_ns")
        p50 = histogram.quantile(0.5) if histogram else 0
        p99 = histogram.quantile(0.99) if histogram else 0
        return {
            "schema": HEALTH_SCHEMA,
            "status": self.status(),
            "shed_level": self.shed_level(),
            "queue": self.gate.snapshot(),
            "coalesce": self.board.snapshot(),
            "workers": self.pool.counters(),
            "requests": {
                "total": self.metrics.counter_total(
                    "serve_requests_total"),
                "cache_hits": self.metrics.counter_total(
                    "serve_cache_hits_total"),
                "coalesce_hits": self.metrics.counter_total(
                    "serve_coalesce_hits_total"),
                "shed": self.metrics.counter_total(
                    "serve_shed_total"),
                "errors": self.metrics.counter_total(
                    "serve_errors_total"),
                "timeouts": self.metrics.counter_total(
                    "serve_timeouts_total"),
                "quarantined": len(self.quarantined),
            },
            # Diagnostics only — never folded into Result bytes.
            "latency_ms": {
                "p50": round(p50 / 1e6, 3),
                "p99": round(p99 / 1e6, 3),
            },
        }

    def healthz(self) -> Response:
        """Liveness + full scoreboard; always 200 while we can answer."""
        return Response.json(200, self.health_doc())

    def readyz(self) -> Response:
        """Readiness: 503 while overloaded or critical."""
        ready = self.shed_level() > LEVEL_CRITICAL and not self.overloaded
        if ready:
            return Response.json(200, {"ready": True,
                                       "status": self.status()})
        return Response.json(
            503, {"ready": False, "status": self.status()},
            **{"Retry-After": str(retry_after_s(
                "experiment", self.gate.depth, self.gate.capacity))})
