"""Wait-mechanism models vs the five §6.1 observations."""

import pytest

from repro.core.wait import Placement, WaitMechanism, handoff
from repro.cpu.costs import CostModel
from repro.errors import ConfigError


@pytest.fixture
def cm():
    return CostModel()


def test_function_call_is_the_floor(cm):
    result = handoff(cm, WaitMechanism.FUNCTION_CALL, Placement.SMT, 1000)
    assert result.response_ns == 0
    assert result.producer_ns == 1000


def test_obs1_polling_lowest_latency_small_workloads(cm):
    mechanisms = (WaitMechanism.POLLING, WaitMechanism.MWAIT,
                  WaitMechanism.MUTEX)
    responses = {m: handoff(cm, m, Placement.SMT, 0).response_ns
                 for m in mechanisms}
    assert responses[WaitMechanism.POLLING] == min(responses.values())


def test_obs1_polling_overhead_grows_with_workload_under_smt(cm):
    # The spinning waiter steals cycles from the computing thread.
    small = handoff(cm, WaitMechanism.POLLING, Placement.SMT, 1_000)
    large = handoff(cm, WaitMechanism.POLLING, Placement.SMT, 100_000)
    assert small.producer_ns > small.workload_ns
    penalty_small = small.producer_ns - small.workload_ns
    penalty_large = large.producer_ns - large.workload_ns
    assert penalty_large > penalty_small


def test_obs2_cross_numa_order_of_magnitude(cm):
    smt = handoff(cm, WaitMechanism.POLLING, Placement.SMT, 0)
    numa = handoff(cm, WaitMechanism.POLLING, Placement.NUMA, 0)
    assert numa.response_ns >= 8 * smt.response_ns


def test_obs3_separate_core_fast_but_burns_a_cpu(cm):
    result = handoff(cm, WaitMechanism.POLLING, Placement.CORE, 10_000)
    assert result.producer_ns == 10_000          # no SMT interference
    assert result.burns_remote_cpu                # ...but a core is lost


def test_obs4_mutex_startup_offset_by_large_workloads_in_smt(cm):
    # For large workloads mutex beats polling (total time) because the
    # waiting thread blocks instead of stealing cycles.
    workload = 100_000
    polling = handoff(cm, WaitMechanism.POLLING, Placement.SMT, workload)
    mutex = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, workload)
    assert mutex.total_ns < polling.total_ns
    # ...while its blocking wake is far costlier than a poll iteration.
    assert mutex.response_ns > polling.response_ns


def test_obs5_mwait_slightly_better_than_mutex_large(cm):
    workload = 100_000
    mwait = handoff(cm, WaitMechanism.MWAIT, Placement.SMT, workload)
    mutex = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, workload)
    assert mwait.total_ns < mutex.total_ns
    margin = (mutex.total_ns - mwait.total_ns) / mutex.total_ns
    assert margin < 0.10  # "slightly"


def test_obs5_mwait_slightly_slower_than_mutex_small(cm):
    # "mutex actively polls for a brief time first".
    mwait = handoff(cm, WaitMechanism.MWAIT, Placement.SMT, 0)
    mutex = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, 0)
    assert mutex.response_ns < mwait.response_ns


def test_paper_conclusion_smt_plus_mwait_compromise(cm):
    # §6.1: "SMT+mwait is a good compromise between low latency responses
    # and low overheads when a colocated thread is performing
    # computations."
    for workload in (0, 1_000, 20_000, 100_000):
        mwait = handoff(cm, WaitMechanism.MWAIT, Placement.SMT, workload)
        assert mwait.producer_ns == workload       # never steals cycles
        assert not mwait.burns_remote_cpu
        assert mwait.response_ns <= handoff(
            cm, WaitMechanism.MWAIT, Placement.NUMA, workload
        ).response_ns


def test_invalid_inputs_rejected(cm):
    with pytest.raises(ConfigError):
        handoff(cm, "telepathy", Placement.SMT, 0)
    with pytest.raises(ConfigError):
        handoff(cm, WaitMechanism.MWAIT, "moon", 0)
    with pytest.raises(ConfigError):
        handoff(cm, WaitMechanism.MWAIT, Placement.SMT, -1)


# -- lost wakeups (docs/robustness.md) ------------------------------------


def test_polling_immune_to_lost_wakeup(cm):
    clean = handoff(cm, WaitMechanism.POLLING, Placement.SMT, 1000)
    lost = handoff(cm, WaitMechanism.POLLING, Placement.SMT, 1000,
                   lost_wakeup=True)
    assert lost == clean
    assert not lost.recovered


def test_function_call_immune_to_lost_wakeup(cm):
    lost = handoff(cm, WaitMechanism.FUNCTION_CALL, Placement.SMT, 1000,
                   lost_wakeup=True)
    assert lost.response_ns == 0
    assert not lost.recovered


def test_mwait_lost_wakeup_pays_recovery_timeout(cm):
    clean = handoff(cm, WaitMechanism.MWAIT, Placement.SMT, 1000)
    lost = handoff(cm, WaitMechanism.MWAIT, Placement.SMT, 1000,
                   lost_wakeup=True, recovery_timeout_ns=3_000)
    assert lost.recovered
    assert lost.response_ns == clean.response_ns + 3_000


def test_mutex_spin_window_immune_to_lost_wakeup(cm):
    # Small workload: the waiter is still actively spinning.
    small = cm.mutex_startup // 4
    lost = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, small,
                   lost_wakeup=True)
    assert not lost.recovered
    clean = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, small)
    assert lost.response_ns == clean.response_ns


def test_mutex_blocked_lost_wakeup_pays_recovery_timeout(cm):
    large = cm.mutex_startup * 10
    clean = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, large)
    lost = handoff(cm, WaitMechanism.MUTEX, Placement.SMT, large,
                   lost_wakeup=True, recovery_timeout_ns=2_000)
    assert lost.recovered
    assert lost.response_ns == clean.response_ns + 2_000


def test_lost_wakeup_applies_across_placements(cm):
    for placement in Placement.ALL:
        lost = handoff(cm, WaitMechanism.MWAIT, placement, 500,
                       lost_wakeup=True)
        assert lost.recovered, placement


def test_negative_recovery_timeout_rejected(cm):
    with pytest.raises(ConfigError):
        handoff(cm, WaitMechanism.MWAIT, Placement.SMT, 100,
                recovery_timeout_ns=-1)
