"""cpuid workload: Table 1 and Figure 6 anchors."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims, registry
from repro.workloads import cpuid

TOTAL_US = claims.paper_value("table1", "total_us")
FIG6 = claims.paper("fig6")


def test_baseline_matches_table1_total():
    result = cpuid.run(ExecutionMode.BASELINE, iterations=10)
    assert result.us_per_op == pytest.approx(TOTAL_US, abs=0.01)


@pytest.fixture(scope="module")
def bars():
    """Figure 6's five bars at 10 iterations: ``{label: us}``."""
    fig6 = registry.get("fig6")
    return {label: cpuid.run(iterations=10, **spec).us_per_op
            for label, spec in fig6.BARS}


def test_figure6_bars(bars):
    assert bars["L0"] == pytest.approx(FIG6["l0_us"], abs=0.005)
    assert bars["L2"] == pytest.approx(FIG6["l2_us"], abs=0.02)
    assert bars["L0"] < bars["L1"] < bars["HW SVt"] < bars["SW SVt"] \
        < bars["L2"]


def test_figure6_speedups(bars):
    assert bars["L2"] / bars["SW SVt"] == pytest.approx(
        FIG6["sw_speedup"], abs=0.01)
    assert bars["L2"] / bars["HW SVt"] == pytest.approx(
        FIG6["hw_speedup"], abs=0.01)


def test_table1_breakdown_matches_paper_percentages():
    rows = cpuid.table1_breakdown(iterations=10)
    paper = {label: (us, pct)
             for label, _key, us, _check, pct in claims.TABLE1_PARTS}
    for label, us, pct in rows:
        paper_us, paper_pct = paper[label]
        assert us == pytest.approx(paper_us, abs=0.01), label
        assert pct == pytest.approx(paper_pct, abs=0.1), label


def test_table1_total_is_10_40_us():
    rows = cpuid.table1_breakdown(iterations=10)
    assert sum(us for _, us, _ in rows) == pytest.approx(TOTAL_US, abs=0.01)


def test_surrounding_work_adds_linearly():
    bare = cpuid.run(iterations=5)
    loaded = cpuid.run(iterations=5, surrounding_work_ns=3000)
    assert loaded.ns_per_op == pytest.approx(bare.ns_per_op + 3000, abs=5)
