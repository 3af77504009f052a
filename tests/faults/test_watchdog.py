"""Watchdog: strike/backoff/degrade protocol."""

import pytest

from repro.faults.watchdog import Watchdog


def test_constructor_validation():
    with pytest.raises(ValueError):
        Watchdog(timeout_ns=0)
    with pytest.raises(ValueError):
        Watchdog(backoff_factor=0)
    with pytest.raises(ValueError):
        Watchdog(timeout_ns=2000, max_backoff_ns=1000)
    with pytest.raises(ValueError):
        Watchdog(max_strikes=0)


def test_backoff_is_exponential_and_capped():
    wd = Watchdog(timeout_ns=1000, backoff_factor=2, max_backoff_ns=4000)
    assert [wd.backoff_ns(k) for k in range(5)] == \
           [1000, 2000, 4000, 4000, 4000]


def test_strike_returns_backoff_then_escalates():
    wd = Watchdog(timeout_ns=1000, backoff_factor=2,
                  max_backoff_ns=64000, max_strikes=3)
    wd.start()
    assert wd.strike() == 1000
    assert wd.strike() == 2000
    assert not wd.exhausted
    assert wd.strike() == 4000
    assert wd.exhausted


def test_succeed_counts_recovery_only_after_strikes():
    wd = Watchdog()
    wd.start()
    assert wd.succeed() is False            # clean exchange, no fault
    wd.start()
    wd.strike()
    assert wd.succeed() is True             # retried, then arrived
    assert wd.counters()["recoveries"] == 1


def test_give_up_records_exhaustion():
    wd = Watchdog(max_strikes=2)
    wd.start()
    wd.strike()
    wd.strike()
    assert wd.exhausted
    assert wd.give_up() == 2
    doc = wd.counters()
    assert doc["exhaustions"] == 1
    assert doc["strikes"] == 2


def test_start_resets_per_exchange_strikes():
    wd = Watchdog(max_strikes=2)
    wd.start()
    wd.strike()
    wd.start()
    assert not wd.exhausted
    assert wd.counters()["exchanges"] == 2
    assert wd.counters()["strikes"] == 1    # total across exchanges


def test_counters_shape():
    assert set(Watchdog().counters()) == \
           {"exchanges", "strikes", "recoveries", "exhaustions"}
