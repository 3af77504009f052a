"""BackoffPolicy: the shared deterministic retry schedule."""

import pytest

from repro.faults.backoff import BackoffPolicy
from repro.faults.watchdog import Watchdog


def test_defaults_reproduce_the_watchdog_schedule():
    policy = BackoffPolicy()
    assert policy.schedule() == (2_000, 4_000, 8_000, 16_000, 32_000)


def test_delay_is_exponential_and_capped():
    policy = BackoffPolicy(base_ns=1000, factor=2, cap_ns=4000)
    assert [policy.delay_ns(k) for k in range(5)] == \
           [1000, 2000, 4000, 4000, 4000]


def test_constructor_validation():
    with pytest.raises(ValueError):
        BackoffPolicy(base_ns=0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0)
    with pytest.raises(ValueError):
        BackoffPolicy(base_ns=2000, cap_ns=1000)
    with pytest.raises(ValueError):
        BackoffPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        BackoffPolicy(jitter_tenths=11)
    with pytest.raises(ValueError):
        BackoffPolicy().delay_ns(-1)


def test_jitter_needs_both_a_key_and_a_budget():
    jittered = BackoffPolicy(jitter_tenths=5)
    plain = BackoffPolicy()
    # No key -> the exact watchdog formula, even with jitter on.
    assert jittered.schedule() == plain.schedule()
    # A key without a jitter budget changes nothing either.
    assert plain.schedule(key="abc") == plain.schedule()


def test_jitter_is_deterministic_and_bounded():
    policy = BackoffPolicy(jitter_tenths=5)
    base = BackoffPolicy()
    assert policy.schedule(key="fp-1") == policy.schedule(key="fp-1")
    assert policy.schedule(key="fp-1") != policy.schedule(key="fp-2")
    for attempt in range(policy.max_attempts):
        plain = base.delay_ns(attempt)
        delay = policy.delay_ns(attempt, key="fp-1")
        assert plain <= delay <= plain + plain * 5 // 10


def test_exhausted_matches_max_attempts():
    policy = BackoffPolicy(max_attempts=3)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    assert policy.exhausted(4)


def test_watchdog_delegates_byte_identically():
    wd = Watchdog(timeout_ns=1000, backoff_factor=3,
                  max_backoff_ns=50_000, max_strikes=4)
    assert isinstance(wd.policy, BackoffPolicy)
    for strike in range(6):
        assert wd.backoff_ns(strike) == wd.policy.delay_ns(strike)
    assert [wd.backoff_ns(k) for k in range(5)] == \
           [1000, 3000, 9000, 27000, 50000]
