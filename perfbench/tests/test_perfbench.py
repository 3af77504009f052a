"""The benchmark's own tests.

Run from the checkout root: ``PYTHONPATH=src python3 -m pytest -q
perfbench/tests``.
"""

import json
import os

import pytest

from perfbench import common, layers, probe, schedule, tracing


# -- schedules are pure functions of the seed ---------------------------------


def test_cold_rounds_are_seeded_permutations():
    first = schedule.cold_rounds(5, 4)
    assert first == schedule.cold_rounds(5, 4)
    assert first != schedule.cold_rounds(6, 4)
    for order in first:
        assert sorted(order) == sorted(common.EXPERIMENTS)


def test_serve_requests_are_seeded():
    assert schedule.serve_requests(3, 400) == schedule.serve_requests(3, 400)
    assert schedule.serve_requests(3, 400) != schedule.serve_requests(4, 400)
    # A longer list extends a shorter one.
    assert schedule.serve_requests(3, 800)[:400] == \
        schedule.serve_requests(3, 400)


def _key(doc):
    return json.dumps(doc, sort_keys=True)


def test_serve_requests_mix_and_repeats():
    requests = schedule.serve_requests(11, 2000)
    seen = set()
    new = 0
    for start in range(0, len(requests), schedule.BLOCK):
        block = requests[start:start + schedule.BLOCK]
        earlier = set(seen)
        for doc in block:
            key = _key(doc)
            if key in earlier:
                continue
            assert key not in seen, "a repeat of a point from its own block"
            seen.add(key)
            new += 1
            name = doc["experiment"]
            param, default = common.CHEAP[name]
            assert set(doc["params"]) == {"cost_model", param}
            assert doc["params"][param] != default
            assert doc["params"]["cost_model"] in common.COST_MODELS
    # One new point per block after the first: about one in four.
    assert new == schedule.BLOCK + len(requests) // schedule.BLOCK - 1


def test_traced_prefix_is_the_same_point_set_at_every_seed():
    def points(seed):
        prefix = schedule.serve_requests(seed, schedule.TRACED_REQUESTS)
        return {_key(doc) for doc in prefix}

    assert points(1) == points(2) == points(99)
    assert len(points(1)) == len(common.CHEAP) * len(common.COST_MODELS)


# -- output checks ---------------------------------------------------------------


def test_check_uses_digest_or_shape():
    doc = {"experiment": "x", "tables": [
        {"title": "T", "rows": [{"label": "a", "values": [1]}]}],
        "scalars": {"k": 1}}
    expected = {"digests": {"x": common.fingerprint("x", doc,
                                                    {"shapes": {}})},
                "shapes": {"y": common.shape(doc)}}
    assert common.check("x", doc, expected)
    assert common.check("y", dict(doc, scalars={"k": 2}), expected)
    changed = dict(doc, scalars={"k": 2})
    assert not common.check("x", changed, expected)
    assert not common.check("y", dict(doc, scalars={"j": 1}), expected)


def test_tampered_digest_fails_the_op(tmp_path):
    from perfbench import cold

    expected = common.load_expected()
    harness = cold.ColdHarness(str(tmp_path), expected)
    assert harness.op("table4")["ok"]
    tampered = json.loads(json.dumps(expected))
    tampered["digests"]["table4"] = "0" * 64
    assert not cold.ColdHarness(str(tmp_path), tampered).op("table4")["ok"]


def test_expected_covers_every_experiment():
    expected = common.load_expected()
    assert set(expected["digests"]) | set(expected["shapes"]) == \
        set(common.EXPERIMENTS)


# -- probe normalization -------------------------------------------------------


def test_normalize_scales_by_the_probe():
    assert probe.normalize(1.0, probe.P_REF_S) == pytest.approx(1.0)
    assert probe.normalize(1.0, 2 * probe.P_REF_S) == pytest.approx(0.5)
    assert probe.normalize(0.3, probe.P_REF_S / 3) == pytest.approx(0.9)


def test_host_probe_restores_cpu_set():
    before = os.sched_getaffinity(0)
    assert probe.host_probe(sorted(before)) > 0
    assert os.sched_getaffinity(0) == before


def test_timed_normalizes_by_the_probes_around_it():
    probes = iter([probe.P_REF_S, 3 * probe.P_REF_S])
    (seconds, normalized), result = probe.timed(lambda: "done",
                                                lambda: next(probes))
    assert result == "done"
    assert normalized == pytest.approx(seconds / 2)
    assert probe.total([(1.0, 0.5), (2.0, 1.5)]) == {
        "seconds": 3.0, "normalized_s": 2.0, "pieces": 2}


# -- span arithmetic -----------------------------------------------------------

EXP = "repro.exp.runner:run_experiments"
CORE = "repro.core.system:Machine.__init__"
VIRT = layers.COMPOSE
TRANSFORM = layers.TRANSFORMS[0]


def _span(sid, parent, name, start, end, pid=1, op=1):
    return (pid, sid, parent, op, name, start, end)


def test_self_time_with_cross_layer_nesting():
    # exp [0,100] > core [10,90] > virt [20,50] > virt [30,40]
    #                            > virt [60,70]
    spans = [
        _span(1, None, EXP, 0, 100),
        _span(2, 1, CORE, 10, 90),
        _span(3, 2, VIRT, 20, 50),
        _span(4, 3, TRANSFORM, 30, 40),
        _span(5, 2, TRANSFORM, 60, 70),
    ]
    tree = layers.SpanTree(spans)
    assert tree.self_ns(spans[0]) == 20
    assert tree.self_ns(spans[1]) == 40
    assert tree.self_ns(spans[2]) == 20
    assert tree.layer_self_ms("exp") == pytest.approx(20 / 1e6)
    assert tree.layer_self_ms("core") == pytest.approx(40 / 1e6)
    # virt: [20,50] minus nothing of another layer, plus [60,70].
    assert tree.layer_self_ms("virt") == pytest.approx(40 / 1e6)
    assert tree.outer_ms({VIRT, TRANSFORM}) == pytest.approx(40 / 1e6)
    assert tree.outer_ms({TRANSFORM}) == pytest.approx(20 / 1e6)


def test_self_time_clips_overlapping_children():
    spans = [_span(1, None, EXP, 0, 100),
             _span(2, 1, CORE, 10, 60),
             _span(3, 1, CORE, 40, 120)]
    tree = layers.SpanTree(spans)
    assert tree.self_ns(spans[0]) == 10


def _write_trace(directory, spans, counts=None, missing=()):
    names = sorted({span[4] for span in spans})
    record = {"pid": 1, "names": names, "counts": counts or {},
              "missing": list(missing),
              "spans": [[s[1], s[2], s[3], names.index(s[4]), s[5], s[6]]
                        for s in spans]}
    with open(os.path.join(directory, "spans-1.jsonl"), "w") as handle:
        handle.write(json.dumps(record) + "\n")


def test_span_metrics_from_a_trace_file(tmp_path):
    spans = [
        _span(1, None, layers.MEASURE_SERVICE, 0, 100),
        _span(2, 1, CORE, 10, 90),
        _span(3, None, layers.MEASURE_SERVICE, 200, 210),
        _span(4, None, layers.LOAD, 300, 310),
        _span(5, None, layers.LOAD, 400, 410),
    ]
    _write_trace(str(tmp_path), spans,
                 counts={tracing.CACHE_LOAD_HITS: 1, layers.TRANSLATE: 7})
    values, gone = layers.span_metrics(str(tmp_path))
    assert gone == []
    assert values["workloads.memcached.measure_service.calls"] == 2
    assert values["workloads.memcached.service_memo_ratio"] == 0.5
    assert values["core.machine_build.calls"] == 1
    assert values["exp.cache.hit_ratio"] == 0.5
    assert values["virt.ept.translate.calls"] == 7
    assert values["workloads.memcached.self_ms"] == pytest.approx(30 / 1e6)


def test_a_missing_target_drops_its_metrics(tmp_path):
    _write_trace(str(tmp_path), [_span(1, None, EXP, 0, 10)],
                 missing=[layers.COMPOSE])
    values, gone = layers.span_metrics(str(tmp_path))
    assert "virt.ept.compose.calls" in gone
    assert "virt.ept.compose.calls" not in values
    assert "virt.l2_exit.calls" in values


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      2000 |       2000 |   repro.core.system",
        "import time:       500 |       2500 | repro.core",
        "import time:       300 |        300 | repro.cli",
        "import time:        40 |         40 | repro.newpkg.mod",
    ])
    values = layers.importtime_split(text)
    assert values["startup.modules"] == 5
    assert values["startup.import_ms.core"] == pytest.approx(2.5)
    assert values["startup.import_ms.repro"] == pytest.approx(0.34)
    assert values["startup.import_ms.stdlib"] == pytest.approx(0.1)


# -- the wrapped names exist ---------------------------------------------------


def test_every_wrapped_public_name_exists():
    for _, target, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        assert callable(getattr(owner, attr)), target
    for target in tracing.STATS_SOURCES:
        tracing._resolve(target)


def _traced_run(directory):
    os.makedirs(directory)

    def child():
        tracing.install(directory)
        from repro.exp.runner import run_experiments

        run_experiments(["table1", "fig6"], cache=None)
        tracing.flush()
        return tracing.missing()

    missing, _ = common.fork_call(child)
    assert missing == []
    return layers.span_metrics(directory)[0]


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_run(str(tmp_path / "a"))
    second = _traced_run(str(tmp_path / "b"))
    counts = {name: value for name, value in first.items()
              if not name.endswith(("ms", "_ratio"))}
    assert counts["virt.l2_exit.calls"] > 0
    assert counts["core.machine_build.calls"] > 0
    assert counts["virt.vmcs.access.calls"] > 0
    assert counts == {name: second[name] for name in counts}


# -- BENCHMARK.json matches the harness ----------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    from perfbench import run

    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])
