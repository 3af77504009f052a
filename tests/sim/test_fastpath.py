"""Fast-path clock semantics: ``Tracer.charge`` ≡ ``Simulator.advance``
followed by the booking.

``Tracer.charge`` is the clock's one fast path: while the cached next
deadline proves that nothing falls due it moves the clock itself, and
otherwise it calls ``Simulator.advance``, which drains the heap on
every call.  The property test drives interleaved
schedule/cancel/charge sequences through two simulators, one charging
through a ``Tracer``, the other advancing on every nonzero charge and
then booking it, and compares everything a caller can observe; a fixed
program makes the same comparison through every branch of the charge.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Category, Tracer


@pytest.fixture
def tracer(sim):
    return Tracer(sim)


# -- charge basics ---------------------------------------------------------


def test_charge_moves_clock(sim, tracer):
    sim.after(1_000, lambda: None)
    tracer.charge(150, Category.IDLE)
    assert sim.now == 150
    assert tracer.totals[Category.IDLE] == 150


def test_charge_rejects_negative(sim, tracer):
    # With an event due the negative charge takes the slow path, and
    # it still raises before the clock moves or anything is booked.
    fired = []
    sim.after(0, fired.append, "due")
    with pytest.raises(SimulationError):
        tracer.charge(-1, Category.IDLE)
    assert sim.now == 0
    assert fired == []
    assert not tracer.totals


def test_charge_skips_heap_when_nothing_due(sim, tracer):
    sim.after(1_000, lambda: None)
    for _ in range(10):
        tracer.charge(50, Category.IDLE)
    assert sim.now == 500
    assert sim.events_fired == 0


def test_charge_fires_due_events_in_order(sim, tracer):
    fired = []
    sim.after(30, fired.append, 3)
    sim.after(10, fired.append, 1)
    sim.after(20, fired.append, 2)
    tracer.charge(25, Category.IDLE)
    assert fired == [1, 2]
    tracer.charge(5, Category.IDLE)
    assert fired == [1, 2, 3]
    assert sim.events_fired == 3


def test_charge_callback_sees_event_time(sim, tracer):
    seen = []
    sim.after(40, lambda: seen.append(sim.now))
    tracer.charge(100, Category.IDLE)
    assert seen == [40]
    assert sim.now == 100


def test_charge_zero_matches_advance_zero(sim, tracer):
    # A zero charge books nothing and leaves an event due at `now` to
    # the next clock move, where it fires at the timestamp advance(0)
    # fires it at; afterwards both simulators agree on everything.
    fast_seen, slow_seen = [], []
    slow = Simulator()
    sim.after(0, lambda: fast_seen.append(sim.now))
    slow.after(0, lambda: slow_seen.append(slow.now))
    tracer.charge(0, Category.IDLE)
    slow.advance(0)
    assert sim.now == slow.now == 0
    assert not tracer.totals
    tracer.charge(5, Category.IDLE)
    slow.advance(5)
    assert fast_seen == slow_seen == [0]
    assert sim.now == slow.now == 5
    assert sim.events_fired == slow.events_fired == 1
    assert sim.peek_next_time() == slow.peek_next_time()


def test_next_due_survives_cancelling_the_earliest(sim, tracer):
    fired = []
    early = sim.after(10, fired.append, "early")
    sim.after(100, fired.append, "late")
    early.cancel()
    # The cached deadline may still point at the cancelled entry
    # (conservative-low is allowed); firing must not happen early.
    tracer.charge(50, Category.IDLE)
    assert fired == []
    tracer.charge(50, Category.IDLE)
    assert fired == ["late"]


# -- handles ---------------------------------------------------------------


def test_stale_cancel_after_recycling_is_impossible_by_construction(sim):
    # Every at()/after() returns a new handle, never a fired one, so a
    # stale cancel() cannot reach an unrelated event: cancelling an
    # already-fired handle is a no-op, and a caller-held handle stays
    # valid while other events fire.
    fired_early = sim.after(10, lambda: None)
    sim.run_until_idle()
    fired = []
    kept = sim.after(30, fired.append, "kept")
    other = sim.after(20, fired.append, "other")
    assert fired_early not in (kept, other)
    fired_early.cancel()
    kept.cancel()
    sim.run_until_idle()
    assert fired == ["other"]


# -- properties ------------------------------------------------------------

_CATEGORIES = (Category.IDLE, Category.CHANNEL, Category.L0_HANDLER)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"),
                  st.one_of(st.just(0), st.integers(-2, 120)),
                  st.sampled_from(_CATEGORIES)),
        st.tuples(st.just("after"),
                  st.one_of(st.just(0), st.integers(0, 150)),
                  st.just(None)),
        st.tuples(st.just("cancel"), st.integers(0, 200), st.just(None)),
        st.tuples(st.just("idle"), st.just(0), st.just(None)),
        st.tuples(st.just("peek"), st.just(0), st.just(None)),
    ),
    max_size=80,
)


def _next_live(sim):
    """``peek_next_time`` without its side effect: peeking refreshes
    the cached deadline, which would hide a stale-low cache from the
    next charge."""
    return min((h.time for h in sim._queue if not h.cancelled),
               default=None)


def _assert_charge_equals_advance_then_booking(ops):
    fast, slow = Simulator(), Simulator()
    tracer = Tracer(fast)
    totals = defaultdict(int)
    fast_log, slow_log = [], []
    fast_handles, slow_handles = [], []

    def record(log, simulator, token):
        log.append((token, simulator.now))

    def reference_charge(ns, category):
        if ns != 0:
            slow.advance(ns)
            totals[category] += ns

    token = 0
    for op, arg, category in ops:
        if op == "charge" and arg < 0:
            with pytest.raises(SimulationError):
                tracer.charge(arg, category)
            with pytest.raises(SimulationError):
                reference_charge(arg, category)
        elif op == "charge":
            tracer.charge(arg, category)
            reference_charge(arg, category)
        elif op == "after":
            fast_handles.append(
                fast.after(arg, record, fast_log, fast, token))
            slow_handles.append(
                slow.after(arg, record, slow_log, slow, token))
            token += 1
        elif op == "cancel" and fast_handles:
            index = arg % len(fast_handles)
            fast_handles[index].cancel()
            slow_handles[index].cancel()
        elif op == "idle":
            fast.run_until_idle()
            slow.run_until_idle()
        elif op == "peek":
            assert fast.peek_next_time() == slow.peek_next_time()
        assert fast.now == slow.now
        assert fast_log == slow_log
        assert _next_live(fast) == _next_live(slow)
        assert fast.events_fired == slow.events_fired
        assert tracer.totals == totals
    assert fast.peek_next_time() == slow.peek_next_time()


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_charge_program_equals_advance_program(ops):
    _assert_charge_equals_advance_then_booking(ops)


def test_tracer_charge_equals_simulator_charge_then_booking():
    """The same comparison on one fixed program that takes every branch
    of ``Tracer.charge``: a zero charge with an event due at ``now``, a
    charge whose target is exactly the cached deadline, the fast path
    with an event pending, a charge past a cancelled earliest entry and
    a negative charge with an event due, across three categories."""
    _assert_charge_equals_advance_then_booking([
        ("after", 0, None),
        ("charge", 0, Category.CHANNEL),
        ("charge", 10, Category.L0_HANDLER),
        ("after", 40, None),
        ("charge", 40, Category.IDLE),
        ("after", 100, None),
        ("charge", 30, Category.CHANNEL),
        ("after", 5, None),
        ("cancel", 3, None),
        ("charge", 20, Category.L0_HANDLER),
        ("after", 0, None),
        ("charge", -1, Category.IDLE),
        ("peek", 0, None),
        ("charge", 50, Category.L0_HANDLER),
        ("idle", 0, None),
    ])


def _check_next_due_conservative_low(sim, charge, ops):
    handles = []
    for op, arg, category in ops:
        if op == "charge" and arg >= 0:
            charge(arg, category)
        elif op == "after":
            handles.append(sim.after(arg, lambda: None))
        elif op == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif op == "idle":
            sim.run_until_idle()
        elif op == "peek":
            sim.peek_next_time()
        due, live = sim._next_due, _next_live(sim)
        assert live is None or (due is not None and due <= live)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_next_due_cache_is_conservative_low(ops):
    """The cached deadline never exceeds the true earliest live event
    while every charge advances the simulator."""
    sim = Simulator()
    _check_next_due_conservative_low(
        sim, lambda ns, category: sim.advance(ns), ops)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_next_due_cache_is_conservative_low_through_tracer(ops):
    """The same when every charge goes through a Tracer, which moves
    the clock itself while nothing is due."""
    sim = Simulator()
    _check_next_due_conservative_low(sim, Tracer(sim).charge, ops)
