"""Tracer accounting."""

import pytest

from repro.sim.trace import Category, Tracer


def test_totals_accumulate():
    tracer = Tracer()
    tracer.record(Category.L0_HANDLER, 100)
    tracer.record(Category.L0_HANDLER, 50)
    assert tracer.totals[Category.L0_HANDLER] == 150
    assert tracer.counts[Category.L0_HANDLER] == 2


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        Tracer().record(Category.IDLE, -1)


def test_total_selected_categories():
    tracer = Tracer()
    tracer.record(Category.L0_HANDLER, 10)
    tracer.record(Category.L1_HANDLER, 20)
    tracer.record(Category.IDLE, 70)
    assert tracer.total(Category.L0_HANDLER, Category.L1_HANDLER) == 30
    assert tracer.total() == 100


def test_share():
    tracer = Tracer()
    tracer.record(Category.GUEST_WORK, 25)
    tracer.record(Category.IDLE, 75)
    assert tracer.share(Category.GUEST_WORK) == 0.25


def test_share_of_empty_tracer_is_zero():
    assert Tracer().share(Category.IDLE) == 0.0


def test_merged_with_sums_both():
    a, b = Tracer(), Tracer()
    a.record(Category.IDLE, 10)
    b.record(Category.IDLE, 5)
    b.record(Category.CHANNEL, 7)
    merged = a.merged_with(b)
    assert merged.totals[Category.IDLE] == 15
    assert merged.totals[Category.CHANNEL] == 7
    # Sources unchanged.
    assert a.totals[Category.IDLE] == 10


def test_reset_clears_everything():
    tracer = Tracer()
    tracer.record(Category.IDLE, 10)
    tracer.reset()
    assert tracer.total() == 0
    assert tracer.counts == {}


def test_snapshot_is_independent_copy():
    tracer = Tracer()
    tracer.record(Category.IDLE, 10)
    snap = tracer.snapshot()
    tracer.record(Category.IDLE, 10)
    assert snap[Category.IDLE] == 10


def test_record_forwards_charges_to_an_observer():
    class Sink:
        def __init__(self):
            self.charges = []

        def charge(self, category, ns):
            self.charges.append((category, ns))

    tracer = Tracer()
    tracer.observer = Sink()
    tracer.record(Category.CHANNEL, 30)
    assert tracer.observer.charges == [(Category.CHANNEL, 30)]


def test_table1_parts_cover_the_paper_rows():
    assert Category.TABLE1_PARTS == (
        Category.GUEST_WORK,
        Category.SWITCH_L2_L0,
        Category.VMCS_TRANSFORM,
        Category.L0_HANDLER,
        Category.SWITCH_L0_L1,
        Category.L1_HANDLER,
    )
