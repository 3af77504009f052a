"""End-to-end observability: a machine under a live observer.

The acceptance property for the whole layer: the Chrome trace's charge
spans must reproduce the paper's Table 1 — per-part sums recovered from
the trace alone match the tracer's own accounting exactly, and the
per-operation breakdown lands within 1% of the paper's numbers.
"""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.exp import claims
from repro.obs import (
    Observer,
    capture_metrics,
    charge_totals,
    trace_breakdown,
)

ITERATIONS = 50

#: Table 1 per-op parts (us): 0 L2, 1 switch, 2 transform, 3 L0
#: handler, 4 switch, 5 L1 handler.
PAPER_PARTS_US = tuple(us for _label, _key, us, *_ in claims.TABLE1_PARTS)
PAPER_TOTAL_US = claims.paper_value("table1", "total_us")


def _run_cpuid(mode, observer=None):
    machine = Machine(mode=mode, observer=observer)
    machine.run_program(isa.Program([isa.cpuid()], repeat=1), level=2)
    machine.run_program(isa.Program([isa.cpuid()], repeat=ITERATIONS),
                        level=2)
    return machine


@pytest.fixture(scope="module")
def baseline():
    observer = Observer()
    machine = _run_cpuid(ExecutionMode.BASELINE, observer)
    return machine, observer


@pytest.mark.parametrize("mode", (ExecutionMode.BASELINE,
                                  ExecutionMode.SW_SVT,
                                  ExecutionMode.HW_SVT))
def test_charge_spans_partition_tracer_totals_exactly(baseline, mode):
    """Summing charge spans per category gives the tracer's totals to
    the nanosecond — the property that makes Table-1-from-trace exact."""
    if mode == ExecutionMode.BASELINE:
        machine, observer = baseline
    else:
        observer = Observer()
        machine = _run_cpuid(mode, observer)
    assert charge_totals(observer.spans.finished()) \
        == dict(machine.tracer.totals)


def test_trace_reproduces_table1_within_one_percent(baseline):
    _, observer = baseline
    rows = trace_breakdown(observer, operations=ITERATIONS + 1)
    measured = [us for _, us, _ in rows]
    for got, paper in zip(measured, PAPER_PARTS_US):
        assert got == pytest.approx(paper, rel=0.01)
    assert sum(measured) == pytest.approx(PAPER_TOTAL_US, rel=0.01)


def test_trace_spans_cover_all_three_levels(baseline):
    _, observer = baseline
    levels = {span.level for span in observer.spans.finished()}
    assert {0, 1, 2} <= levels


def test_structural_spans_name_the_exit_pipeline(baseline):
    _, observer = baseline
    names = {span.name for span in observer.spans.finished()}
    assert "l2_exit:CPUID" in names
    assert "l1_handler:CPUID" in names
    assert "vmcs_transform:02->12" in names
    assert "run_program" in names


def test_machine_metrics_count_the_exit_flow(baseline):
    _, observer = baseline
    metrics = observer.metrics
    # 51 operations: one warm-up + 50 measured, one L2 exit each.
    assert metrics.counter_value("exits_total", reason="CPUID",
                                 level=2, mode="baseline") \
        == ITERATIONS + 1
    assert metrics.counter_total("handler_dispatch_total") > 0
    histogram = metrics.histogram("exit_ns", reason="CPUID", level=2)
    assert histogram is not None
    assert histogram.count == ITERATIONS + 1


def test_hw_svt_counts_svt_transitions():
    observer = Observer()
    _run_cpuid(ExecutionMode.HW_SVT, observer)
    assert observer.metrics.counter_total("svt_transitions_total") > 0


def test_sw_svt_counts_channel_commands():
    observer = Observer()
    _run_cpuid(ExecutionMode.SW_SVT, observer)
    assert observer.metrics.counter_total("channel_commands_total") > 0


def test_machine_without_observer_has_no_instrumentation():
    """The disabled path: no ambient capture, no observer argument —
    nothing observability-related is attached anywhere."""
    machine = _run_cpuid(ExecutionMode.BASELINE)
    assert machine.obs is None
    assert machine.sim.obs is None
    assert machine.core.obs is None
    assert machine.interrupts.obs is None


def test_machine_adopts_ambient_capture_observer():
    with capture_metrics() as observer:
        machine = _run_cpuid(ExecutionMode.BASELINE)
    assert machine.obs is observer
    snap = observer.metrics_snapshot()
    assert snap["counters"]     # the run really was captured
    # Metrics-only capture records no spans (cheap inside pools).
    assert observer.spans is None


def test_observed_run_times_identically_to_unobserved():
    """Observability must never change simulated time, only record it."""
    plain = _run_cpuid(ExecutionMode.BASELINE)
    observed = _run_cpuid(ExecutionMode.BASELINE, Observer())
    assert observed.sim.now == plain.sim.now
    assert observed.tracer.snapshot() == plain.tracer.snapshot()
