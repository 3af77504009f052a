"""Channel workload: the five §6.1 observations end to end."""

import pytest

from repro.core.wait import WaitMechanism
from repro.exp import claims
from repro.workloads import channels


@pytest.fixture(scope="module")
def sweep():
    return channels.sweep()


def test_all_observations_hold(sweep):
    for name in channels.OBSERVATIONS:
        assert sweep.observations[name], name


def test_sweep_covers_grid(sweep):
    assert len(sweep.results) == 4 * 3 * 6


def test_cell_lookup(sweep):
    cell = sweep.cell(WaitMechanism.MWAIT, "smt", 0)
    assert cell.mechanism == WaitMechanism.MWAIT
    with pytest.raises(KeyError):
        sweep.cell(WaitMechanism.MWAIT, "smt", 12345)


@pytest.fixture(scope="module")
def cpuid_impacts():
    return channels.cpuid_with_mechanisms(iterations=20)


def test_mwait_gives_paper_speedup(cpuid_impacts):
    baseline_us, impacts = cpuid_impacts
    mwait = next(i for i in impacts if i.mechanism == WaitMechanism.MWAIT)
    # Paper §6.1: mwait's saving and speedup on nested cpuid.
    assert baseline_us - mwait.cpuid_us == pytest.approx(
        claims.paper_value("sec61", "mwait_saving_us"), abs=0.2)
    assert mwait.speedup_vs_baseline == pytest.approx(
        claims.paper_value("sec61", "mwait_speedup"), abs=0.02)


def test_polling_offers_little_acceleration(cpuid_impacts):
    # Paper §6.1: "Polling offers very little acceleration".
    _, impacts = cpuid_impacts
    polling = next(i for i in impacts
                   if i.mechanism == WaitMechanism.POLLING)
    mwait = next(i for i in impacts if i.mechanism == WaitMechanism.MWAIT)
    assert polling.speedup_vs_baseline < mwait.speedup_vs_baseline


def test_mutex_worse_than_mwait_for_cpuid(cpuid_impacts):
    _, impacts = cpuid_impacts
    mutex = next(i for i in impacts if i.mechanism == WaitMechanism.MUTEX)
    mwait = next(i for i in impacts if i.mechanism == WaitMechanism.MWAIT)
    assert mutex.cpuid_us > mwait.cpuid_us
