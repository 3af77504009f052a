"""ExperimentService: differential byte-identity, coalescing, shed,
quarantine — the serve tier's end-to-end contracts (no HTTP)."""

import asyncio
import json

from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.exp.registry import RunContext
from repro.exp.runner import run_experiments
from repro.faults.backoff import BackoffPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.serve.pool import WorkerPool
from repro.serve.protocol import ServeRequest
from repro.serve.service import (LEVEL_CRITICAL, LEVEL_DEGRADED,
                                 ExperimentService)

FAST = BackoffPolicy(base_ns=1000, factor=1, cap_ns=1000,
                     max_attempts=3)

MODELS = ("xeon-paper", "fast-switch")


def setup_module():
    registry.ensure_loaded()


def request_for(name, model):
    return ServeRequest.parse(
        {"kind": "experiment", "experiment": name,
         "params": {"cost_model": model}})


def serial_bytes(name, model):
    """What the CLI path produces for the same request."""
    exp = registry.get(name)
    params = exp.resolve({"cost_model": model})
    return exp.run(RunContext.create(params)).to_json()


def with_service(tmp_path, scenario, **pool_kw):
    """Run one async scenario against a live service, then tear down."""
    capacity = pool_kw.pop("capacity", 8)
    pool = WorkerPool(**pool_kw)
    cache = ResultCache(tmp_path)
    service = ExperimentService(cache, pool, capacity=capacity,
                                deadline_s=30.0)
    pool.start()
    try:
        return asyncio.run(scenario(service))
    finally:
        pool.stop()


def header(response, name):
    return dict(response.headers).get(name)


def submit_each(cases, sources):
    """A scenario that submits every case once per expected
    ``X-Repro-Source``, in order, and returns the bodies."""
    async def scenario(service):
        served = {}
        for source in sources:
            for name, model in cases:
                response = await service.submit(request_for(name, model))
                assert response.status == 200
                assert header(response, "X-Repro-Source") == source
                served[(name, model, source)] = response.body
        return served
    return scenario


def test_served_bodies_match_the_cli_path_across_models(tmp_path):
    """The acceptance differential: >= 3 experiments x 2 cost models,
    byte-for-byte against the serial Experiment.run path: computed,
    re-submitted and served from the cache, and served from a cache
    that ``run_experiments`` (the CLI path) filled."""
    cases = [(name, model)
             for name in ("table1", "table4", "coexist")
             for model in MODELS]
    served = with_service(tmp_path / "served",
                          submit_each(cases, ("computed", "cache")),
                          jobs=2)
    for name, model in cases:
        run_experiments([name], overrides={"cost_model": model},
                        cache=ResultCache(tmp_path / "cli"))
    from_cli = with_service(tmp_path / "cli",
                            submit_each(cases, ("cache",)), jobs=1)
    for name, model in cases:
        expected = serial_bytes(name, model).encode("utf-8")
        assert served[(name, model, "computed")] == expected, (name, model)
        assert served[(name, model, "cache")] == expected, (name, model)
        assert from_cli[(name, model, "cache")] == expected, (name, model)


def test_second_submit_is_a_cache_hit(tmp_path):
    async def scenario(service):
        first = await service.submit(request_for("table1", MODELS[0]))
        second = await service.submit(request_for("table1", MODELS[0]))
        assert first.status == second.status == 200
        assert header(first, "X-Repro-Source") == "computed"
        assert header(second, "X-Repro-Source") == "cache"
        assert first.body == second.body
        assert service.pool.counters()["executed"] == 1

    with_service(tmp_path, scenario, jobs=1)


def test_concurrent_identical_requests_share_one_computation(tmp_path):
    async def scenario(service):
        requests = [request_for("table1", MODELS[0])
                    for _ in range(4)]
        responses = await asyncio.gather(
            *[service.submit(request) for request in requests])
        bodies = {response.body for response in responses}
        assert len(bodies) == 1
        sources = sorted(header(response, "X-Repro-Source")
                         for response in responses)
        assert sources == ["coalesced"] * 3 + ["computed"]
        assert service.pool.counters()["executed"] == 1
        assert service.board.snapshot()["hits"] == 3
        return bodies.pop()

    body = with_service(tmp_path, scenario, jobs=2)
    assert body == serial_bytes("table1", MODELS[0]).encode("utf-8")


def test_near_identical_requests_never_coalesce(tmp_path):
    """Same experiment, different --cost-model: distinct fingerprints,
    one computation each."""
    async def scenario(service):
        pair = [request_for("table3", MODELS[0]),
                request_for("table3", MODELS[1])]
        responses = await asyncio.gather(
            *[service.submit(request) for request in pair])
        fingerprints = {header(response, "X-Repro-Fingerprint")
                        for response in responses}
        assert len(fingerprints) == 2
        assert responses[0].body != responses[1].body
        assert service.pool.counters()["executed"] == 2
        assert service.board.snapshot()["hits"] == 0

    with_service(tmp_path, scenario, jobs=2)


def test_deterministic_failures_become_cached_negative_entries(
        tmp_path):
    broken = ServeRequest(kind="experiment", experiment="no-such",
                          params=())

    async def scenario(service):
        first = await service.submit(broken)
        assert first.status == 422
        assert not json.loads(first.body)["cached"]
        second = await service.submit(broken)
        assert second.status == 422
        assert json.loads(second.body)["cached"]
        assert header(second, "X-Repro-Source") == "cache"
        # The replayed error never re-entered the pool.
        assert service.pool.counters()["executed"] == 1

    with_service(tmp_path, scenario, jobs=1)


def test_crash_exhaustion_quarantines_the_fingerprint(tmp_path):
    plan = FaultPlan(seed=7, rates={FaultKind.WORKER_KILL: 1.0})

    async def scenario(service):
        request = request_for("table1", MODELS[0])
        first = await service.submit(request)
        assert first.status == 500
        assert json.loads(first.body)["quarantined"]
        second = await service.submit(request)
        assert second.status == 422
        assert "quarantined" in json.loads(second.body)["error"]
        assert service.health_doc()["requests"]["quarantined"] == 1

    with_service(tmp_path, scenario, jobs=1, policy=FAST,
                 injector=FaultInjector(plan),
                 max_kills_per_worker=1000)


def test_worker_kill_storm_completes_without_duplicate_work(tmp_path):
    """The acceptance storm: every worker killed once mid-campaign,
    the full request set still completes, zero duplicated
    computations, and the retry counter is visible in the health
    doc."""
    plan = FaultPlan(seed=2019, rates={FaultKind.WORKER_KILL: 1.0})

    async def scenario(service):
        requests = [request_for(name, model)
                    for name in ("table1", "table4", "coexist")
                    for model in MODELS]
        responses = await asyncio.gather(
            *[service.submit(request) for request in requests])
        assert [r.status for r in responses] == [200] * len(requests)
        health = service.health_doc()
        assert health["workers"]["executed"] == len(requests)
        assert health["workers"]["retries"] > 0
        assert health["workers"]["crashes"] > 0

    with_service(tmp_path, scenario, jobs=2, policy=FAST,
                 injector=FaultInjector(plan), max_kills_per_worker=1)


def test_overload_sheds_expensive_tiers_first(tmp_path):
    async def scenario(service):
        # Wedge the gate, then reject a full capacity in a row: the
        # service calls that overloaded.
        assert service.gate.try_push() and service.gate.try_push()
        dse = ServeRequest.parse({"kind": "dse"})
        rejected = await service.submit(dse)
        assert rejected.status == 429
        assert header(rejected, "Retry-After") == "2"
        rejected = await service.submit(dse)
        assert rejected.status == 429
        assert service.overloaded
        assert service.shed_level() == LEVEL_DEGRADED

        # Now dse sheds deterministically; experiments still try.
        shed = await service.submit(dse)
        assert shed.status == 503
        assert header(shed, "Retry-After") == "2"
        experiment = await service.submit(
            request_for("table1", MODELS[0]))
        assert experiment.status == 429
        assert header(experiment, "Retry-After") == "1"

        # Degraded on top of overloaded: critical, shed experiments
        # too — but never cached reads.
        service._degrade_budget = 4
        assert service.shed_level() == LEVEL_CRITICAL
        fresh = await service.submit(request_for("table1", MODELS[1]))
        assert fresh.status == 503
        assert service.readyz().status == 503
        assert service.healthz().status == 200
        assert service.health_doc()["status"] == "critical"

    with_service(tmp_path, scenario, jobs=1, capacity=2)


def test_cached_reads_survive_the_critical_level(tmp_path):
    async def scenario(service):
        request = request_for("table1", MODELS[0])
        warm = await service.submit(request)
        assert warm.status == 200
        service.gate.reject_streak = service.gate.capacity
        service._degrade_budget = 4
        assert service.shed_level() == LEVEL_CRITICAL
        cached = await service.submit(request)
        assert cached.status == 200
        assert header(cached, "X-Repro-Source") == "cache"
        assert cached.body == warm.body

    with_service(tmp_path, scenario, jobs=1)


def test_served_cache_hit_host_work_is_pinned(tmp_path, cache_host_work):
    """A served cache hit keys its request once, for its fingerprint,
    which ``load`` reuses; it digests no model and neither decodes nor
    encodes a Result: it answers with the stored bytes.  The computed
    request before it also keyed once (``load``, ``load_error`` and
    ``store`` reuse the fingerprint), kept the digest and decoded the
    worker's body once, as the check before storing it."""
    async def scenario(service):
        computed = await service.submit(request_for("table1",
                                                    "xeon-paper"))
        before = cache_host_work.copy()
        cache_host_work.clear()
        served = await service.submit(request_for("table1",
                                                  "xeon-paper"))
        return computed, before, served

    computed, before, served = with_service(tmp_path, scenario, jobs=1)
    assert header(computed, "X-Repro-Source") == "computed"
    assert header(served, "X-Repro-Source") == "cache"
    assert served.body == computed.body
    drift = before.drift({"ResultCache.key": 1,
                          "CostModel.digest[xeon-paper]": 1,
                          "Result.from_dict": 1})
    assert not drift, "one computed request: " + "; ".join(drift)
    drift = cache_host_work.drift({"ResultCache.key": 1})
    assert not drift, "one served cache hit: " + "; ".join(drift)
