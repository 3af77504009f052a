"""ServeRequest validation, tiers, and Retry-After arithmetic."""

import pytest

from repro.errors import ConfigError
from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.serve.protocol import (RETRY_AFTER_BASE_S, TIER_RANK,
                                  ServeRequest, retry_after_s)


def setup_module():
    registry.ensure_loaded()


def test_tiers_shed_expensive_first():
    assert TIER_RANK["cached"] < TIER_RANK["experiment"] \
        < TIER_RANK["dse"]


def test_parse_resolves_experiment_params_strictly():
    request = ServeRequest.parse(
        {"kind": "experiment", "experiment": "table1",
         "params": {"iterations": 5}})
    assert request.kind == "experiment"
    assert request.experiment == "table1"
    assert request.params_dict["iterations"] == 5
    # resolve() fills every default, so the params are total.
    assert "cost_model" in request.params_dict


def test_parse_rejects_typos_loudly():
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "teleport"})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "bench"})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "experiment"})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "experiment",
                            "experiment": "no-such-table"})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "experiment",
                            "experiment": "table1",
                            "params": {"iterrations": 5}})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "dse",
                            "params": {"warp_factor": 9}})
    with pytest.raises(ConfigError):
        ServeRequest.parse({"kind": "experiment",
                            "experiment": "table1",
                            "params": [5]})


def test_two_spellings_share_one_fingerprint(tmp_path):
    cache = ResultCache(tmp_path)
    exp = registry.get("table1")
    terse = ServeRequest.parse(
        {"kind": "experiment", "experiment": "table1",
         "params": dict(exp.smoke)})
    explicit = ServeRequest.parse(
        {"kind": "experiment", "experiment": "table1",
         "params": exp.resolve(exp.smoke)})
    assert terse.fingerprint(cache) == explicit.fingerprint(cache)


def test_cost_model_changes_the_fingerprint(tmp_path):
    cache = ResultCache(tmp_path)

    def fp(model):
        return ServeRequest.parse(
            {"kind": "experiment", "experiment": "table1",
             "params": {"cost_model": model}}).fingerprint(cache)

    assert fp("xeon-paper") != fp("fast-switch")


def test_non_experiment_kinds_use_pseudo_names(tmp_path):
    cache = ResultCache(tmp_path)
    dse = ServeRequest.parse({"kind": "dse"})
    assert dse.fingerprint(cache) == cache.key("__dse__", {})
    # List params normalize to tuples so the fingerprint is stable.
    a = ServeRequest.parse(
        {"kind": "dse", "params": {"models": ["xeon-paper"]}})
    b = ServeRequest.parse(
        {"kind": "dse", "params": {"models": ["xeon-paper"]}})
    assert a.fingerprint(cache) == b.fingerprint(cache)


def test_retry_after_is_the_tier_base_at_rejection():
    for kind, base in RETRY_AFTER_BASE_S.items():
        # At the moment of a 429 the queue is exactly one capacity
        # deep, whatever that capacity is.
        assert retry_after_s(kind, 4, 4) == base
        assert retry_after_s(kind, 8, 8) == base


def test_retry_after_scales_with_backlog_pressure():
    assert retry_after_s("experiment", 9, 4) == 3
    assert retry_after_s("dse", 8, 4) == 4
    assert retry_after_s("dse", 0, 4) == 2
    with pytest.raises(ConfigError):
        retry_after_s("experiment", 1, 0)
    # An unknown kind has no tier base to fall back on.
    with pytest.raises(ConfigError):
        retry_after_s("bench", 0, 4)
