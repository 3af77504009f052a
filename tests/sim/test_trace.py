"""Tracer accounting."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Category, Tracer


def test_totals_accumulate():
    tracer = Tracer(Simulator())
    tracer.charge(100, Category.L0_HANDLER)
    tracer.charge(50, Category.L0_HANDLER)
    assert tracer.totals[Category.L0_HANDLER] == 150


def test_charge_advances_the_clock_by_what_it_books():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.charge(30, Category.CHANNEL)
    tracer.charge(0, Category.IDLE)
    assert sim.now == 30
    assert dict(tracer.totals) == {Category.CHANNEL: 30}


def test_negative_charge_rejected():
    tracer = Tracer(Simulator())
    with pytest.raises(SimulationError):
        tracer.charge(-1, Category.IDLE)
    assert not tracer.totals


def test_snapshot_is_independent_copy():
    tracer = Tracer(Simulator())
    tracer.charge(10, Category.IDLE)
    snap = tracer.snapshot()
    tracer.charge(10, Category.IDLE)
    assert snap[Category.IDLE] == 10


def test_since_returns_deltas_in_totals_order():
    tracer = Tracer(Simulator())
    tracer.charge(10, Category.IDLE)
    tracer.charge(5, Category.L1_HANDLER)
    before = tracer.snapshot()
    tracer.charge(7, Category.CHANNEL)
    tracer.charge(3, Category.IDLE)
    since = tracer.since(before)
    assert since == {Category.IDLE: 3, Category.L1_HANDLER: 0,
                     Category.CHANNEL: 7}
    assert list(since) == list(tracer.totals)
    assert type(since) is dict


def test_charge_forwards_to_the_simulator_observer():
    class Sink:
        def __init__(self):
            self.charges = []

        def charge(self, category, ns):
            self.charges.append((category, ns, sim.now))

    sim = Simulator()
    sim.obs = Sink()
    tracer = Tracer(sim)
    tracer.charge(30, Category.CHANNEL)
    tracer.charge(0, Category.IDLE)
    # The clock has already moved: the span is [now - ns, now].
    assert sim.obs.charges == [(Category.CHANNEL, 30, 30)]


def test_table1_parts_cover_the_paper_rows():
    assert Category.TABLE1_PARTS == (
        Category.GUEST_WORK,
        Category.SWITCH_L2_L0,
        Category.VMCS_TRANSFORM,
        Category.L0_HANDLER,
        Category.SWITCH_L0_L1,
        Category.L1_HANDLER,
    )
