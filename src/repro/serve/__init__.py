"""repro.serve — the long-lived, fault-tolerant experiment service.

The front door the ROADMAP's "millions of users" north star needs:
an asyncio HTTP/JSON API (stdlib only — no new runtime dependencies)
that executes experiment and DSE requests on a supervised process
worker pool, with the robustness machinery threaded through every
layer:

* **admission control + backpressure** — a bounded request gate
  reusing the CommandRing ``try_push`` idiom
  (:mod:`repro.serve.admission`): when full, clients get 429 with a
  deterministic ``Retry-After``;
* **request coalescing** — identical in-flight requests, keyed by the
  ``repro.exp.cache`` fingerprints (cost-model fingerprint included),
  share one computation (:mod:`repro.serve.coalesce`), with the result
  cache as the memoization tier;
* **deadlines + supervision** — per-request deadlines, worker-crash
  detection with deterministic fingerprint-seeded backoff
  (:class:`repro.faults.BackoffPolicy`), capped retries, and
  poisoned-request quarantine (:mod:`repro.serve.pool`);
* **graceful degradation** — under overload or repeated worker loss
  the service sheds load by tier (DSE first, cached reads last)
  and reports through ``/healthz`` + ``/readyz``
  (:mod:`repro.serve.service`).

Served results are byte-identical to the CLI path for the same
fingerprint; ``repro loadtest`` (:mod:`repro.serve.loadtest`) drives a
seeded client schedule against a live instance and checks its
deterministic counters against the committed ``BENCH_serve.json``
exactly.  See ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.coalesce import Coalescer
from repro.serve.pool import WorkerPool
from repro.serve.protocol import ServeRequest
from repro.serve.service import ExperimentService

__all__ = [
    "AdmissionQueue",
    "Coalescer",
    "ExperimentService",
    "ServeRequest",
    "WorkerPool",
]
