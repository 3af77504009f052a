"""Event-engine semantics: ordering, cancellation, co-simulation."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_starts_at_time_zero(sim):
    assert sim.now == 0


def test_advance_moves_clock(sim):
    sim.advance(150)
    assert sim.now == 150


def test_advance_rejects_negative(sim):
    with pytest.raises(SimulationError):
        sim.advance(-1)


def test_after_schedules_relative(sim):
    fired = []
    sim.after(100, fired.append, "a")
    sim.advance(99)
    assert fired == []
    sim.advance(1)
    assert fired == ["a"]


def test_at_rejects_past(sim):
    sim.advance(50)
    with pytest.raises(SimulationError):
        sim.at(49, lambda: None)


def test_events_fire_in_time_order(sim):
    fired = []
    sim.after(30, fired.append, 3)
    sim.after(10, fired.append, 1)
    sim.after(20, fired.append, 2)
    sim.run_until_idle()
    assert fired == [1, 2, 3]


def test_ties_break_by_registration_order(sim):
    fired = []
    sim.after(10, fired.append, "first")
    sim.after(10, fired.append, "second")
    sim.run_until_idle()
    assert fired == ["first", "second"]


def test_callback_sees_event_time(sim):
    seen = []
    sim.after(40, lambda: seen.append(sim.now))
    sim.advance(100)
    assert seen == [40]
    assert sim.now == 100


def test_cancelled_events_do_not_fire(sim):
    fired = []
    handle = sim.after(10, fired.append, "x")
    handle.cancel()
    sim.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent(sim):
    handle = sim.after(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_events_may_schedule_events(sim):
    fired = []
    sim.after(10, lambda: sim.after(5, fired.append, "nested"))
    sim.run_until_idle()
    assert fired == ["nested"]
    assert sim.now == 15


def test_advance_fires_chained_events_inside_window(sim):
    fired = []
    sim.after(10, lambda: sim.after(5, lambda: fired.append(sim.now)))
    sim.advance(100)
    assert fired == [15]


def test_run_until_idle_with_limit_stops_early(sim):
    fired = []
    sim.after(10, fired.append, "a")
    sim.after(500, fired.append, "b")
    sim.run_until_idle(limit=100)
    assert fired == ["a"]
    assert sim.now == 100
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_peek_next_time(sim):
    assert sim.peek_next_time() is None
    sim.after(30, lambda: None)
    handle = sim.after(10, lambda: None)
    assert sim.peek_next_time() == 10
    handle.cancel()
    assert sim.peek_next_time() == 30


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.after(-5, lambda: None)


def test_time_never_decreases_across_mixed_operations(sim):
    times = []
    sim.after(7, lambda: times.append(sim.now))
    sim.advance(3)
    times.append(sim.now)
    sim.after(2, lambda: times.append(sim.now))
    sim.run_until_idle()
    times.append(sim.now)
    assert times == sorted(times)
