"""TPC-C workload: Figure 9 shape."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import tpcc


@pytest.fixture(scope="module")
def results():
    return {
        mode: tpcc.run(mode, transactions=2)
        for mode in ExecutionMode.ALL
    }


def test_baseline_throughput_near_paper(results):
    assert results[ExecutionMode.BASELINE].ktpm == pytest.approx(
        claims.paper_value("fig9", "baseline_ktpm"), rel=0.03)


def test_sw_svt_speedup_near_paper(results):
    speedup = (results[ExecutionMode.SW_SVT].ktpm
               / results[ExecutionMode.BASELINE].ktpm)
    assert speedup == pytest.approx(claims.paper_value("fig9", "speedup"),
                                    abs=0.05)


def test_hw_beats_sw(results):
    assert results[ExecutionMode.HW_SVT].ktpm \
        > results[ExecutionMode.SW_SVT].ktpm \
        > results[ExecutionMode.BASELINE].ktpm


def test_transaction_time_consistency(results):
    for result in results.values():
        cfg = tpcc.TpccConfig()
        expected_ktpm = cfg.workers * 60e3 / result.txn_ms / 1000.0
        assert result.ktpm == pytest.approx(expected_ktpm, rel=1e-6)
