"""repro loadtest: seeded schedules, campaign invariants, the exact
gate."""

import copy

import pytest

from repro.errors import ReproError
from repro.exp import registry
from repro.serve import loadtest


def setup_module():
    registry.ensure_loaded()


def test_schedule_is_a_pure_function_of_the_seed():
    a = loadtest.build_schedule(2019, 40)
    b = loadtest.build_schedule(2019, 40)
    c = loadtest.build_schedule(2020, 40)
    assert a == b
    assert a != c
    assert len(a) == 40
    assert all(doc["experiment"] in loadtest.MIX for doc in a)
    # The repeat knob actually produces duplicates (coalesce fodder).
    assert len({(doc["experiment"],
                 doc["params"]["cost_model"]) for doc in a}) < 40


def test_small_campaign_upholds_the_invariants(tmp_path):
    doc = loadtest.run_loadtest(seed=2019, requests=8, jobs=2,
                                concurrency=4,
                                cache_dir=tmp_path / "cache",
                                dump_dir=tmp_path / "bodies")
    assert doc["schema"] == loadtest.SCHEMA
    assert sorted(doc) == ["config", "deterministic", "schema"]
    det = doc["deterministic"]
    assert det["requests"] == det["ok"] == 8
    assert det["computed"] == det["distinct"]
    assert det["shared"] == 8 - det["distinct"]
    assert det["rejected"] == 0
    # One dumped body per distinct fingerprint.
    dumped = list((tmp_path / "bodies").glob("*.json"))
    assert len(dumped) == det["distinct"]


def test_compare_passes_identical_documents():
    doc = {"deterministic": {"ok": 8, "computed": 3}}
    assert loadtest.compare(doc, copy.deepcopy(doc)) == []


def test_compare_flags_any_deterministic_drift():
    baseline = {"deterministic": {"ok": 8, "computed": 3}}
    current = {"deterministic": {"ok": 8, "computed": 4}}
    regressions = loadtest.compare(current, baseline)
    assert regressions == [{"field": "computed", "current": 4,
                            "baseline": 3}]


def test_render_mentions_the_load_shape():
    doc = {"config": {"seed": 1, "jobs": 2, "concurrency": 4,
                      "coalesce": True, "storm": False},
           "deterministic": {"requests": 8, "distinct": 3,
                             "computed": 3, "shared": 5, "retries": 0,
                             "rejected": 0, "shed": 0}}
    text = loadtest.render(doc)
    assert "seed=1" in text and "distinct=3" in text


def test_storm_campaign_retries_and_completes(tmp_path):
    doc = loadtest.run_loadtest(seed=2019, requests=8, jobs=2,
                                concurrency=4, storm=True,
                                cache_dir=tmp_path / "cache")
    det = doc["deterministic"]
    assert det["ok"] == 8
    assert det["retries"] > 0
    assert det["computed"] == det["distinct"]
    assert det["quarantined"] == 0


def test_bad_baseline_health_raises_repro_error(monkeypatch,
                                                tmp_path):
    async def broken(host, port, method, path, doc=None):
        return 500, {}, b"{}"

    monkeypatch.setattr(loadtest, "http_request", broken)
    with pytest.raises(ReproError):
        loadtest.run_loadtest(seed=1, requests=1, jobs=1,
                              concurrency=1,
                              cache_dir=tmp_path / "cache")
