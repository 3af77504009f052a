"""MetricsRegistry: labelled counters, histograms, deterministic merge."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    key_string,
    merge_snapshots,
)


def test_key_string_without_labels_is_bare_name():
    assert key_string("exits_total", ()) == "exits_total"


def test_key_string_renders_sorted_labels():
    key = key_string("exits_total",
                     (("level", 2), ("reason", "CPUID")))
    assert key == "exits_total{level=2,reason=CPUID}"


def test_count_accumulates_per_label_set():
    registry = MetricsRegistry()
    registry.count("exits_total", reason="CPUID")
    registry.count("exits_total", 2, reason="CPUID")
    registry.count("exits_total", reason="HLT")
    assert registry.counter_value("exits_total", reason="CPUID") == 3
    assert registry.counter_value("exits_total", reason="HLT") == 1
    assert registry.counter_total("exits_total") == 4


def test_label_order_does_not_split_series():
    registry = MetricsRegistry()
    registry.count("x", a=1, b=2)
    registry.count("x", b=2, a=1)
    assert registry.counter_value("x", a=1, b=2) == 2


def test_missing_counter_reads_zero():
    assert MetricsRegistry().counter_value("nope") == 0


def test_histogram_tracks_count_sum_min_max():
    histogram = Histogram()
    for value in (5, 2, 9):
        histogram.add(value)
    snap = histogram.snapshot()
    assert snap["count"] == 3
    assert snap["sum"] == 16
    assert snap["min"] == 2
    assert snap["max"] == 9
    assert histogram.mean == pytest.approx(16 / 3)


def test_histogram_buckets_are_power_of_two_upper_bounds():
    histogram = Histogram()
    histogram.add(0)     # bit_length 0 -> bucket "0"
    histogram.add(1)     # bit_length 1 -> bucket "1"
    histogram.add(5)     # bit_length 3 -> bucket "7"
    histogram.add(7)     # bit_length 3 -> bucket "7"
    histogram.add(1024)  # bit_length 11 -> bucket "2047"
    assert histogram.snapshot()["buckets"] == {
        "0": 1, "1": 1, "7": 2, "2047": 1,
    }


def test_negative_observation_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.observe("switch_ns", -1)


def test_snapshot_is_sorted_and_json_ready():
    registry = MetricsRegistry()
    registry.count("z_last")
    registry.count("a_first")
    registry.observe("lat_ns", 10, op="write")
    registry.observe("lat_ns", 20, op="read")
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a_first", "z_last"]
    assert list(snap["histograms"]) == ["lat_ns{op=read}",
                                        "lat_ns{op=write}"]
    json.dumps(snap)  # must be plain JSON data


def test_empty_histogram_snapshot_uses_zero_bounds():
    snap = Histogram().snapshot()
    assert snap == {"count": 0, "sum": 0, "min": 0, "max": 0,
                    "buckets": {}}


def _registry_with(counts, observations):
    registry = MetricsRegistry()
    for name, n in counts:
        registry.count(name, n)
    for name, value in observations:
        registry.observe(name, value)
    return registry


def test_merge_adds_counters_and_histograms():
    a = _registry_with([("exits", 2)], [("lat", 8)]).snapshot()
    b = _registry_with([("exits", 3)], [("lat", 100)]).snapshot()
    merged = merge_snapshots([a, b])
    assert merged["counters"] == {"exits": 5}
    histogram = merged["histograms"]["lat"]
    assert histogram["count"] == 2
    assert histogram["sum"] == 108
    assert histogram["min"] == 8
    assert histogram["max"] == 100
    assert histogram["buckets"] == {"15": 1, "127": 1}


def test_merge_of_nothing_is_empty_document():
    assert merge_snapshots([]) == {"counters": {}, "histograms": {}}


@given(st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                           st.integers(1, 50)), max_size=4),
        st.lists(st.tuples(st.sampled_from(["h", "k"]),
                           st.integers(0, 10_000)), max_size=4),
    ),
    max_size=5,
))
def test_merge_is_order_independent(cells):
    """The --jobs guarantee: aggregation over per-cell snapshots gives
    byte-identical documents regardless of completion order."""
    snapshots = [_registry_with(counts, observations).snapshot()
                 for counts, observations in cells]
    forward = merge_snapshots(snapshots)
    backward = merge_snapshots(list(reversed(snapshots)))
    assert json.dumps(forward, sort_keys=True) \
        == json.dumps(backward, sort_keys=True)
