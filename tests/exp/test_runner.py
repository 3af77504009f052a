"""Runner: parallel == serial byte-for-byte, and cache integration."""

from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.exp.runner import run_experiments

#: Small-but-real parameters so the determinism check stays fast.
FAST = {"iterations": 10, "requests": 5_000}


def test_jobs_do_not_change_the_document():
    serial = run_experiments(["fig6", "fig8"], overrides=FAST, jobs=1)
    parallel = run_experiments(["fig6", "fig8"], overrides=FAST, jobs=4)
    assert parallel.to_json() == serial.to_json()


def test_serial_runner_matches_direct_run():
    experiment = registry.get("fig6")
    report = run_experiments(["fig6"], overrides={"iterations": 10})
    from repro.exp.registry import RunContext

    direct = experiment.run(RunContext.create(
        experiment.resolve({"iterations": 10})))
    assert report.runs[0].result == direct


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert cold.served == [] and cold.computed == ["fig6"]
    warm = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert warm.served == ["fig6"] and warm.computed == []
    # Cache temperature must not leak into the document.
    assert warm.to_json() == cold.to_json()
    assert warm.runs[0].result == cold.runs[0].result


def test_an_entry_that_is_not_a_result_is_recomputed(tmp_path):
    """A verified entry whose body does not decode as a Result reads
    as a miss; the computed Result overwrites it."""
    cache = ResultCache(tmp_path)
    params = registry.get("fig6").resolve({"iterations": 10})
    key = cache.key("fig6", params)
    cache.store("fig6", key, params, b'{"schema": "not-a-result"}\n')
    report = run_experiments(["fig6"], overrides={"iterations": 10},
                             cache=cache)
    assert report.computed == ["fig6"]
    assert cache.load("fig6", key) \
        == report.runs[0].result.to_json().encode()


def test_cold_run_cache_host_work_is_pinned(tmp_path, cache_host_work):
    """A cold cached run keys each experiment once (the runner records
    the key and hands it to ``load`` and ``store``), digests its one
    model once per process and encodes each computed Result once, for
    its entry."""
    names = ["fig6", "table1"]
    report = run_experiments(names, cache=ResultCache(tmp_path))
    assert report.computed == names
    drift = cache_host_work.drift({"ResultCache.key": len(names),
                                   "CostModel.digest[xeon-paper]": 1,
                                   "Result.to_json": len(names)})
    assert not drift, "cold fig6 + table1: " + "; ".join(drift)


def test_document_covers_every_requested_experiment(tmp_path):
    report = run_experiments(["fig6", "table1"],
                             overrides={"iterations": 10},
                             cache=ResultCache(tmp_path))
    doc = report.to_document()
    assert sorted(doc["experiments"]) == ["fig6", "table1"]
    assert sorted(doc["meta"]["cache"]["entries"]) == ["fig6", "table1"]
    for result_doc in doc["experiments"].values():
        assert result_doc["schema"] == "repro-result/1"


def test_smoke_overlay_applies():
    report = run_experiments(["fig6"], jobs=1, smoke=True)
    assert report.runs[0].result.params_dict["iterations"] == \
        registry.get("fig6").smoke["iterations"]
