"""Result cache: hits, misses, and fingerprint invalidation."""

import dataclasses
import json

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


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load("x", PARAMS) is None
    cache.store("x", PARAMS, _result())
    assert cache.load("x", PARAMS) == _result()


def test_params_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("x", PARAMS, _result())
    assert cache.load("x", {"iterations": 6}) is None


def test_cost_model_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, cost_fingerprint="aaaa")
    old.store("x", PARAMS, _result())
    assert old.load("x", PARAMS) == _result()
    # A new timing constant -> new fingerprint -> the entry is stale.
    new = ResultCache(tmp_path, cost_fingerprint="bbbb")
    assert new.load("x", PARAMS) is None


def test_code_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, code_version="v1")
    old.store("x", PARAMS, _result())
    assert ResultCache(tmp_path, code_version="v2").load("x", PARAMS) \
        is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store("x", PARAMS, _result())
    path.write_text("{not json")
    assert cache.load("x", PARAMS) is None
    path.write_text("[]")
    assert cache.load("x", PARAMS) is None


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("x", PARAMS, _result())
    cache.store("y", PARAMS, _result())
    assert cache.clear("x") == 1
    assert cache.load("x", PARAMS) is None
    assert cache.load("y", PARAMS) is not None
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
    cache.store("x", xeon, _result())
    assert cache.load("x", arm) is None
    assert cache.load("x", xeon) == _result()


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
    entry = {
        "schema": "repro-cache/1",
        "experiment": "table1",
        "key": PINNED_KEY,
        "params": PINNED_PARAMS,
        "cost_model_id": "xeon-paper",
        "cost_model_fingerprint": PINNED_FINGERPRINTS["xeon-paper"],
        "code_fingerprint": PINNED_CODE,
        "result": result.to_dict(),
    }
    path = tmp_path / f"table1-{PINNED_KEY}.json"
    path.write_text(json.dumps(entry, sort_keys=True, indent=2) + "\n")
    written = path.read_bytes()
    cache = ResultCache(tmp_path, code_version=PINNED_CODE)
    assert cache.key("table1", PINNED_PARAMS) == PINNED_KEY
    assert cache.load("table1", PINNED_PARAMS) == result
    # Storing the same result rewrites the same bytes in place.
    assert cache.store("table1", PINNED_PARAMS, result) == path
    assert path.read_bytes() == written


# -- negative entries (serve tier poisoned keys) --------------------------

def test_error_sentinel_round_trips(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load_error("x", PARAMS) is None
    cache.store_error("x", PARAMS, "cells disagree at (3, 2)")
    assert cache.load_error("x", PARAMS) == "cells disagree at (3, 2)"


def test_error_sentinel_is_never_served_as_a_result(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store_error("x", PARAMS, "boom")
    # The sentinel occupies the Result path but load() rejects it by
    # schema — a poisoned key can never masquerade as a Result.
    assert cache.load("x", PARAMS) is None


def test_result_store_overwrites_the_sentinel(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store_error("x", PARAMS, "transient bug, since fixed")
    cache.store("x", PARAMS, _result())
    assert cache.load("x", PARAMS) == _result()
    assert cache.load_error("x", PARAMS) is None


def test_result_entry_is_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("x", PARAMS, _result())
    assert cache.load_error("x", PARAMS) is None


def test_corrupt_error_sentinel_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store_error("x", PARAMS, "boom")
    path.write_text("{not json")
    assert cache.load_error("x", PARAMS) is None
