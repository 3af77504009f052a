"""disk workload: Figure 7 disk shapes."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import disk

PAPER = claims.paper("fig7")


@pytest.fixture(scope="module")
def lat():
    return {
        (mode, write): disk.run_latency(mode, write=write, operations=8,
                                        warmup=1)
        for mode in ExecutionMode.ALL
        for write in (False, True)
    }


@pytest.fixture(scope="module")
def bw():
    return {
        (mode, write): disk.run_bandwidth(mode, write=write)
        for mode in ExecutionMode.ALL
        for write in (False, True)
    }


def test_randrd_latency_near_paper(lat):
    assert lat[(ExecutionMode.BASELINE, False)] == pytest.approx(
        PAPER["disk_randrd_latency_base"], rel=0.06)


def test_randwr_latency_near_paper(lat):
    assert lat[(ExecutionMode.BASELINE, True)] == pytest.approx(
        PAPER["disk_randwr_latency_base"], rel=0.06)


def test_writes_slower_than_reads(lat):
    for mode in ExecutionMode.ALL:
        assert lat[(mode, True)] > lat[(mode, False)]


def test_latency_speedup_shape(lat):
    base_rd = lat[(ExecutionMode.BASELINE, False)]
    base_wr = lat[(ExecutionMode.BASELINE, True)]
    sw_rd = base_rd / lat[(ExecutionMode.SW_SVT, False)]
    sw_wr = base_wr / lat[(ExecutionMode.SW_SVT, True)]
    hw_rd = base_rd / lat[(ExecutionMode.HW_SVT, False)]
    hw_wr = base_wr / lat[(ExecutionMode.HW_SVT, True)]
    # Paper: reads gain much more from SW SVt than writes; HW SVt gains
    # big on both.
    assert sw_rd == pytest.approx(
        PAPER["disk_randrd_latency_sw_speedup"], abs=0.08)
    assert sw_wr == pytest.approx(
        PAPER["disk_randwr_latency_sw_speedup"], abs=0.05)
    assert sw_rd > sw_wr
    assert hw_rd == pytest.approx(
        PAPER["disk_randrd_latency_hw_speedup"], abs=0.25)
    assert hw_wr == pytest.approx(
        PAPER["disk_randwr_latency_hw_speedup"], abs=0.15)


def test_bandwidth_baselines_near_paper(bw):
    assert bw[(ExecutionMode.BASELINE, False)] == pytest.approx(
        PAPER["disk_randrd_bandwidth_base"], rel=0.10)
    assert bw[(ExecutionMode.BASELINE, True)] == pytest.approx(
        PAPER["disk_randwr_bandwidth_base"], rel=0.05)


def test_bandwidth_speedup_shape(bw):
    base_rd = bw[(ExecutionMode.BASELINE, False)]
    base_wr = bw[(ExecutionMode.BASELINE, True)]
    sw_rd = bw[(ExecutionMode.SW_SVT, False)] / base_rd
    sw_wr = bw[(ExecutionMode.SW_SVT, True)] / base_wr
    hw_rd = bw[(ExecutionMode.HW_SVT, False)] / base_rd
    hw_wr = bw[(ExecutionMode.HW_SVT, True)] / base_wr
    # Bandwidth gains exceed the corresponding latency gains, and every
    # mode ordering holds.
    assert 1.2 <= sw_rd <= 1.6
    assert sw_wr == pytest.approx(
        PAPER["disk_randwr_bandwidth_sw_speedup"], abs=0.06)
    assert 2.0 <= hw_rd <= 2.6
    assert hw_wr == pytest.approx(
        PAPER["disk_randwr_bandwidth_hw_speedup"], abs=0.15)
    assert hw_rd > sw_rd
    assert hw_wr > sw_wr


def test_reads_pipeline_deeper_than_writes():
    cfg = disk.FioConfig()
    assert cfg.read_queue_depth > cfg.write_queue_depth
