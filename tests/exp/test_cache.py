"""Result cache: hits, misses, and fingerprint invalidation."""

import dataclasses
import hashlib
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.exp.cache import (
    ResultCache,
    code_fingerprint,
    cost_model_fingerprint,
)
from repro.exp.result import Result

PARAMS = {"iterations": 5}

#: Fingerprints and one key as literals: an entry already on disk
#: stays valid only while not one byte of them moves.
PINNED_FINGERPRINTS = {
    "arm-flavour": "258d36c641f20c66",
    "fast-switch": "dece6a4b63ce9a1b",
    "riscv-flavour": "92bebe6ce39627c6",
    "slow-ring": "95b10abb79ae30dd",
    "xeon-paper": "27c815dd17f90ff3",
}
PINNED_CODE = "0123456789abcdef"
PINNED_PARAMS = {"cost_model": "xeon-paper", "iterations": 50}
PINNED_KEY = "2334d3c4bf311a62c3040222"


def _result():
    return Result.create(experiment="x", params=PARAMS,
                         scalars={"v": 1.0})


def _body():
    """What a Result entry stores and a hit returns."""
    return _result().to_json().encode()


def _store(cache, name, params, body):
    """Store ``body`` under the key of ``name`` and ``params``."""
    return cache.store(name, cache.key(name, params), params, body)


def _load(cache, name, params):
    """The body stored under the key of ``name`` and ``params``."""
    return cache.load(name, cache.key(name, params))


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    assert cache.load("x", key) is None
    cache.store("x", key, PARAMS, _body())
    assert cache.load("x", key) == _body()


def test_params_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache, "x", PARAMS, _body())
    assert _load(cache, "x", {"iterations": 6}) is None


def test_cost_model_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, cost_fingerprint="aaaa")
    _store(old, "x", PARAMS, _body())
    assert _load(old, "x", PARAMS) == _body()
    # A new timing constant -> new fingerprint -> the entry is stale.
    new = ResultCache(tmp_path, cost_fingerprint="bbbb")
    assert _load(new, "x", PARAMS) is None


def test_code_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, code_version="v1")
    _store(old, "x", PARAMS, _body())
    assert _load(ResultCache(tmp_path, code_version="v2"), "x",
                 PARAMS) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = _store(cache, "x", PARAMS, _body())
    path.write_text("{not json")
    assert _load(cache, "x", PARAMS) is None
    path.write_text("[]")
    assert _load(cache, "x", PARAMS) is None


def test_a_key_reads_only_its_own_entry(tmp_path):
    cache = ResultCache(tmp_path)
    path = _store(cache, "x", PARAMS, _body())
    other = cache.key("x", {"iterations": 6})
    path.rename(tmp_path / f"x-{other}.json")
    assert cache.load("x", other) is None


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache, "x", PARAMS, _body())
    _store(cache, "y", PARAMS, _body())
    assert cache.clear("x") == 1
    assert _load(cache, "x", PARAMS) is None
    assert _load(cache, "y", PARAMS) is not None
    assert cache.clear() == 1


def test_fingerprints_are_stable():
    assert cost_model_fingerprint() == cost_model_fingerprint()
    assert code_fingerprint() == code_fingerprint()
    assert len(cost_model_fingerprint()) == 16
    assert {name: cost_model_fingerprint(name)
            for name in PINNED_FINGERPRINTS} == PINNED_FINGERPRINTS


def test_cost_model_param_keys_differently(tmp_path):
    # The registry refactor's cache bar: the same experiment under a
    # different registered model must occupy a different cache slot.
    cache = ResultCache(tmp_path)
    xeon = {**PARAMS, "cost_model": "xeon-paper"}
    arm = {**PARAMS, "cost_model": "arm-flavour"}
    assert cache.key("x", xeon) != cache.key("x", arm)
    # "xeon-paper" is what an absent param resolves to, but it is still
    # a distinct *param dict*, which the key material already covers.
    _store(cache, "x", xeon, _body())
    assert _load(cache, "x", arm) is None
    assert _load(cache, "x", xeon) == _body()


def test_per_model_fingerprints_differ(tmp_path):
    assert cost_model_fingerprint("arm-flavour") \
        != cost_model_fingerprint("xeon-paper")
    assert cost_model_fingerprint("xeon-paper") \
        == cost_model_fingerprint()
    xeon = costmodels.get_model("xeon-paper")
    # One constant changed: another digest.
    assert dataclasses.replace(xeon, memory_touch=5).digest != xeon.digest
    # An equal model built separately digests the same.
    rebuilt = CostModel()
    assert rebuilt == xeon and rebuilt is not xeon
    assert rebuilt.digest == xeon.digest
    # A name re-registered with other constants keys apart.
    cache = ResultCache(tmp_path)
    params = {**PARAMS, "cost_model": "test-reregistered"}
    costmodels.register_model(xeon.derived("test-reregistered"))
    try:
        before = cache.key("x", params)
        costmodels.register_model(
            xeon.derived("test-reregistered", memory_touch=5),
            replace=True)
        assert cache.key("x", params) != before
    finally:
        costmodels.unregister_model("test-reregistered")


def test_entry_written_before_the_kept_digest_still_hits(tmp_path):
    result = Result.create(experiment="table1", params=PINNED_PARAMS,
                           scalars={"v": 1.0})
    body = result.to_json().encode()
    material = {
        "experiment": "table1",
        "key": PINNED_KEY,
        "params": PINNED_PARAMS,
        "cost_model_id": "xeon-paper",
        "cost_model_fingerprint": PINNED_FINGERPRINTS["xeon-paper"],
        "code_fingerprint": PINNED_CODE,
    }
    header = {**material, "schema": "repro-cache/2",
              "sha256": hashlib.sha256(body).hexdigest()}
    path = tmp_path / f"table1-{PINNED_KEY}.json"
    path.write_bytes(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
                     + b"\n" + body)
    written = path.read_bytes()
    cache = ResultCache(tmp_path, code_version=PINNED_CODE)
    assert cache.key("table1", PINNED_PARAMS) == PINNED_KEY
    assert cache.load("table1", PINNED_KEY) == body
    # Storing the same body rewrites the same bytes in place.
    assert cache.store("table1", PINNED_KEY, PINNED_PARAMS, body) == path
    assert path.read_bytes() == written
    # The older layout at the same path has no reader: a miss.
    old = {**material, "schema": "repro-cache/1",
           "result": result.to_dict()}
    path.write_text(json.dumps(old, sort_keys=True, indent=2) + "\n")
    assert cache.load("table1", PINNED_KEY) is None


def _damaged(data, raw):
    """``raw`` with one byte changed, cut short, or with bytes
    appended."""
    how = data.draw(st.sampled_from(["change", "truncate", "append"]))
    if how == "change":
        at = data.draw(st.integers(0, len(raw) - 1))
        byte = data.draw(st.integers(0, 255).filter(
            lambda value: value != raw[at]))
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    return raw + data.draw(st.binary(min_size=1, max_size=8))


#: Each example stores its entry first, so one ``tmp_path`` can serve
#: every example of a test.
DAMAGE = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@DAMAGE
@given(body=st.one_of(st.just(_body()), st.binary(max_size=64)),
       data=st.data())
def test_a_damaged_entry_never_serves_other_bytes(tmp_path, body, data):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    path = cache.store("x", key, PARAMS, body)
    path.write_bytes(_damaged(data, path.read_bytes()))
    assert cache.load("x", key) in (None, body)


@DAMAGE
@given(error=st.text(max_size=40), data=st.data())
def test_a_damaged_error_sentinel_never_replays_another_message(
        tmp_path, error, data):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    path = cache.store_error("x", key, PARAMS, error)
    path.write_bytes(_damaged(data, path.read_bytes()))
    assert cache.load_error("x", key) in (None, error)


# -- negative entries (serve tier poisoned keys) --------------------------

def test_error_sentinel_round_trips(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    assert cache.load_error("x", key) is None
    cache.store_error("x", key, PARAMS, "cells disagree at (3, 2)")
    assert cache.load_error("x", key) == "cells disagree at (3, 2)"


def test_error_sentinel_is_never_served_as_a_result(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    cache.store_error("x", key, PARAMS, "boom")
    # The sentinel occupies the Result path but load() rejects it by
    # schema — a poisoned key can never masquerade as a Result.
    assert cache.load("x", key) is None


def test_result_store_overwrites_the_sentinel(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    cache.store_error("x", key, PARAMS, "transient bug, since fixed")
    cache.store("x", key, PARAMS, _body())
    assert cache.load("x", key) == _body()
    assert cache.load_error("x", key) is None


def test_result_entry_is_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    cache.store("x", key, PARAMS, _body())
    assert cache.load_error("x", key) is None


def test_corrupt_error_sentinel_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("x", PARAMS)
    path = cache.store_error("x", key, PARAMS, "boom")
    path.write_text("{not json")
    assert cache.load_error("x", key) is None
