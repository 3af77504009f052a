"""SpanRecorder: nesting, emission, deterministic ordering."""

import pytest

from repro.obs.spans import CAT_CHARGE, CAT_STRUCT, SpanRecorder


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def recorder(clock):
    return SpanRecorder(clock)


def test_begin_end_records_interval(recorder, clock):
    span = recorder.begin("l2_exit", level=0)
    clock.advance(120)
    recorder.end(span)
    assert span.start_ns == 0
    assert span.end_ns == 120
    assert span.duration_ns == 120
    assert span.level == 0
    assert span.cat == CAT_STRUCT


def test_nested_spans_track_depth(recorder, clock):
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    assert outer.depth == 0
    assert inner.depth == 1
    assert recorder.open_span_names() == ("outer", "inner")
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.open_span_names() == ()


def test_end_closes_younger_spans_left_open(recorder, clock):
    outer = recorder.begin("outer")
    leaked = recorder.begin("leaked")
    clock.advance(10)
    recorder.end(outer)
    assert recorder.open_span_names() == ()
    assert leaked.end_ns == 10
    assert outer.end_ns == 10


def test_end_of_unopened_span_raises(recorder):
    span = recorder.begin("a")
    recorder.end(span)
    with pytest.raises(ValueError):
        recorder.end(span)


def test_duration_of_open_span_raises(recorder):
    span = recorder.begin("open")
    with pytest.raises(ValueError):
        span.duration_ns  # noqa: B018 — the property raises


def test_emit_records_pretimed_interval(recorder):
    span = recorder.emit("guest_work", 100, 150, level=2)
    assert span.cat == CAT_CHARGE
    assert span.duration_ns == 50
    assert recorder.open_span_names() == ()


def test_span_args_kept(recorder):
    span = recorder.begin("l2_exit", level=0, reason="CPUID", seq=3)
    recorder.end(span)
    assert span.args == {"reason": "CPUID", "seq": 3}


def test_empty_args_stored_as_none(recorder):
    span = recorder.begin("bare")
    recorder.end(span)
    assert span.args is None


def test_finished_orders_by_start_then_depth(recorder, clock):
    outer = recorder.begin("outer")          # starts at 0, depth 0
    inner = recorder.begin("inner")          # starts at 0, depth 1
    clock.advance(5)
    recorder.end(inner)                      # finishes first
    recorder.end(outer)
    names = [span.name for span in recorder.finished()]
    # Outermost first despite finishing last.
    assert names == ["outer", "inner"]


def test_finished_order_is_stable_for_ties(recorder):
    recorder.emit("a", 10, 20)
    recorder.emit("b", 10, 20)
    recorder.emit("c", 0, 5)
    names = [span.name for span in recorder.finished()]
    assert names == ["c", "a", "b"]
