"""``repro loadtest`` — deterministic client storm + exact gate.

Boots a real service (worker pool, HTTP listener on an ephemeral
loopback port) and drives it with a **seeded client schedule**: the
request mix — which experiments, which cost models, which arrivals
repeat an earlier request — derives entirely from
:class:`repro.sim.rng.DeterministicRng`, so two runs of the same seed
issue byte-identical request sequences.  Requests go over the wire in
waves of ``concurrency`` (asyncio gather), which is what makes
coalescing observable: duplicates inside a wave share the leader's
computation, duplicates across waves hit the result cache.

The emitted ``repro-serve-bench/1`` document holds the campaign's
``config`` and its ``deterministic`` counters, which must reproduce
exactly at a given seed (request count, distinct fingerprints,
computations, retries, rejections, sheds); :func:`compare` checks them
against the committed ``BENCH_serve.json``.  The campaign itself
asserts the two core invariants: **one computation per distinct
fingerprint** (when coalescing is on) and **byte-identical bodies per
fingerprint**.  It reads no clock: serving time is measured by the
external benchmark (``perfbench/``), not here.

``--storm`` arms a :class:`repro.faults.FaultPlan` worker-kill storm
(every worker killed once, deterministically) to prove the supervisor
retries without duplicating a computation.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.serve.http import ServeHttp
from repro.serve.pool import WorkerPool
from repro.serve.service import ExperimentService
from repro.sim.rng import DeterministicRng

SCHEMA = "repro-serve-bench/1"

#: Experiments fast enough for a request mix (smoke wall < 20 ms).
MIX = ("coexist", "deep", "related", "table4", "table3", "table1")

#: Cost models exercised by the schedule (near-identical requests:
#: same experiment, different model => distinct fingerprints).
MODELS = ("xeon-paper", "fast-switch")

#: Probability an arrival repeats an earlier request (the coalesce /
#: cache fodder).
REPEAT_P = 0.45


def build_schedule(seed: int, requests: int) -> List[Dict[str, Any]]:
    """The seeded request list (pure function of seed and count)."""
    rng = DeterministicRng(seed).fork("serve-loadtest")
    schedule: List[Dict[str, Any]] = []
    for _ in range(requests):
        if schedule and rng.bernoulli(REPEAT_P):
            schedule.append(
                schedule[rng.randint(0, len(schedule) - 1)])
            continue
        name = MIX[rng.randint(0, len(MIX) - 1)]
        model = MODELS[rng.randint(0, len(MODELS) - 1)]
        exp = registry.get(name)
        params = dict(exp.smoke)
        params["cost_model"] = model
        schedule.append({"kind": "experiment", "experiment": name,
                         "params": params})
    return schedule


# -- raw HTTP client ------------------------------------------------------

async def http_request(host: str, port: int, method: str, path: str,
                       doc: Optional[Mapping[str, Any]] = None,
                       ) -> Tuple[int, Dict[str, str], bytes]:
    """One request over a fresh connection; returns
    (status, lowercase headers, body).

    The body is framed by ``Content-Length``, *not* read-to-EOF:
    worker processes forked by a mid-campaign supervisor restart
    inherit every open client socket, so the server-side close alone
    does not deliver EOF until those workers exit.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b""
        if doc is not None:
            payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Content-Type: application/json\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("utf-8") + payload)
        await writer.drain()
        header_blob = await reader.readuntil(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(
            int(headers.get("content-length", "0")))
    finally:
        writer.close()
    return status, headers, body


# -- the campaign ---------------------------------------------------------

async def _drive(host: str, port: int,
                 schedule: List[Dict[str, Any]], concurrency: int,
                 ) -> List[Tuple[int, Dict[str, str], bytes]]:
    results: List[Tuple[int, Dict[str, str], bytes]] = []
    for wave_start in range(0, len(schedule), concurrency):
        wave = schedule[wave_start:wave_start + concurrency]
        results.extend(await asyncio.gather(*[
            http_request(host, port, "POST", "/v1/request", doc)
            for doc in wave]))
    return results


async def _campaign(seed: int, requests: int, jobs: int,
                    concurrency: int, capacity: int,
                    deadline_s: float, coalesce: bool, storm: bool,
                    cache_dir: Path,
                    dump_dir: Optional[Path]) -> Dict[str, Any]:
    schedule = build_schedule(seed, requests)
    injector = None
    if storm:
        plan = FaultPlan(seed=seed,
                         rates={FaultKind.WORKER_KILL: 1.0})
        injector = FaultInjector(plan)
    pool = WorkerPool(jobs=jobs, injector=injector,
                      max_kills_per_worker=1)
    cache = ResultCache(root=cache_dir)
    service = ExperimentService(cache, pool, capacity=capacity,
                                deadline_s=deadline_s,
                                coalesce=coalesce)
    server = ServeHttp(service)
    pool.start()
    try:
        host, port = await server.start()
        outcomes = await _drive(host, port, schedule, concurrency)
        health_status, _, health_body = await http_request(
            host, port, "GET", "/healthz")
        ready_status, _, _ = await http_request(
            host, port, "GET", "/readyz")
    finally:
        await server.stop()
        pool.stop()

    if health_status != 200:
        raise ReproError(f"/healthz returned {health_status}")
    if ready_status != 200:
        raise ReproError(f"/readyz returned {ready_status}")
    health = json.loads(health_body)

    bodies: Dict[str, bytes] = {}
    statuses: Dict[int, int] = {}
    for status, headers, body in outcomes:
        statuses[status] = statuses.get(status, 0) + 1
        key = headers.get("x-repro-fingerprint", "")
        if status == 200 and key:
            seen = bodies.get(key)
            if seen is not None and seen != body:
                raise ReproError(
                    f"fingerprint {key} served two different bodies")
            bodies[key] = body
    ok = statuses.get(200, 0)
    if ok != requests:
        raise ReproError(
            f"expected {requests} successes, got {ok} "
            f"(statuses: {dict(sorted(statuses.items()))})")
    computed = health["workers"]["executed"]
    if coalesce and computed != len(bodies):
        raise ReproError(
            f"{computed} computations for {len(bodies)} distinct "
            "fingerprints — coalesce/cache tier leaked work")
    if storm and health["workers"]["retries"] == 0:
        raise ReproError("storm campaign saw zero supervisor retries")

    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        for key, body in sorted(bodies.items()):
            (dump_dir / f"{key}.json").write_bytes(body)

    return {
        "schema": SCHEMA,
        "config": {
            "seed": seed,
            "requests": requests,
            "jobs": jobs,
            "concurrency": concurrency,
            "capacity": capacity,
            "coalesce": coalesce,
            "storm": storm,
            "python": ".".join(str(part)
                               for part in sys.version_info[:3]),
        },
        "deterministic": {
            "requests": requests,
            "ok": ok,
            "distinct": len(bodies),
            "computed": computed,
            "shared": requests - len(bodies),
            "retries": health["workers"]["retries"],
            "crashes": health["workers"]["crashes"],
            "rejected": health["queue"]["rejected"],
            "shed": health["requests"]["shed"],
            "errors": health["requests"]["errors"],
            "quarantined": health["requests"]["quarantined"],
        },
    }


def run_loadtest(seed: int = 2019, requests: int = 60, jobs: int = 2,
                 concurrency: int = 8,
                 capacity: Optional[int] = None,
                 deadline_s: float = 30.0, coalesce: bool = True,
                 storm: bool = False,
                 cache_dir: Optional[Path] = None,
                 dump_dir: Optional[Path] = None) -> Dict[str, Any]:
    """One full campaign; returns the ``repro-serve-bench/1`` doc.

    Uses a fresh temporary cache unless ``cache_dir`` is given, so
    ``computed == distinct fingerprints`` holds from a cold start.
    """
    import tempfile

    registry.ensure_loaded()
    if capacity is None:
        capacity = concurrency
    if cache_dir is not None:
        return asyncio.run(_campaign(
            seed, requests, jobs, concurrency, capacity, deadline_s,
            coalesce, storm, cache_dir, dump_dir))
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        return asyncio.run(_campaign(
            seed, requests, jobs, concurrency, capacity, deadline_s,
            coalesce, storm, Path(tmp), dump_dir))


# -- the gate -------------------------------------------------------------

def compare(current: Mapping[str, Any],
            baseline: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Every ``deterministic`` counter of ``current`` that differs from
    ``baseline``'s, by field name.  Any drift is a correctness
    regression, not noise."""
    base_det = baseline.get("deterministic", {})
    cur_det = current.get("deterministic", {})
    return [{"field": key, "current": cur_det.get(key),
             "baseline": base_det.get(key)}
            for key in sorted(set(base_det) | set(cur_det))
            if base_det.get(key) != cur_det.get(key)]


def render(doc: Mapping[str, Any]) -> str:
    """Human-readable campaign summary."""
    config = doc.get("config", {})
    det = doc.get("deterministic", {})
    lines = [
        (f"loadtest seed={config.get('seed')} "
         f"requests={det.get('requests')} jobs={config.get('jobs')} "
         f"concurrency={config.get('concurrency')} "
         f"coalesce={config.get('coalesce')} "
         f"storm={config.get('storm')}"),
        (f"  distinct={det.get('distinct')} "
         f"computed={det.get('computed')} "
         f"shared={det.get('shared')} retries={det.get('retries')} "
         f"rejected={det.get('rejected')} shed={det.get('shed')}"),
    ]
    return "\n".join(lines)
