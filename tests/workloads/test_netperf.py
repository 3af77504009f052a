"""netperf workload: Figure 7 network shapes."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import netperf

PAPER = claims.paper("fig7")


@pytest.fixture(scope="module")
def latencies():
    return {
        mode: netperf.run_latency(mode, operations=10, warmup=2)
        for mode in ExecutionMode.ALL
    }


@pytest.fixture(scope="module")
def bandwidths():
    return {mode: netperf.run_bandwidth(mode) for mode in ExecutionMode.ALL}


def test_baseline_latency_near_paper(latencies):
    assert latencies[ExecutionMode.BASELINE] == pytest.approx(
        PAPER["net_latency_base"], rel=0.06)


def test_latency_ordering(latencies):
    assert latencies[ExecutionMode.HW_SVT] \
        < latencies[ExecutionMode.SW_SVT] \
        < latencies[ExecutionMode.BASELINE]


def test_latency_speedups_near_paper(latencies):
    base = latencies[ExecutionMode.BASELINE]
    sw = base / latencies[ExecutionMode.SW_SVT]
    hw = base / latencies[ExecutionMode.HW_SVT]
    assert sw == pytest.approx(PAPER["net_latency_sw_speedup"], abs=0.06)
    assert hw == pytest.approx(PAPER["net_latency_hw_speedup"], abs=0.12)


def test_baseline_bandwidth_near_paper(bandwidths):
    assert bandwidths[ExecutionMode.BASELINE] == pytest.approx(
        PAPER["net_bandwidth_base"], rel=0.03)


def test_bandwidth_near_line_rate(bandwidths):
    # Paper: "network bandwidth is close to the physical limit of 10Gbps".
    assert bandwidths[ExecutionMode.BASELINE] > 9000


def test_bandwidth_speedups_shape(bandwidths):
    base = bandwidths[ExecutionMode.BASELINE]
    sw = bandwidths[ExecutionMode.SW_SVT] / base
    hw = bandwidths[ExecutionMode.HW_SVT] / base
    assert sw == pytest.approx(PAPER["net_bandwidth_sw_speedup"], abs=0.05)
    assert hw == pytest.approx(PAPER["net_bandwidth_hw_speedup"], abs=0.05)
    assert hw >= sw
