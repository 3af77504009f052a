"""End-to-end observability: a machine under a live observer.

The acceptance property for the whole layer: the Chrome trace's charge
spans must reproduce the paper's Table 1 — per-part sums recovered from
the trace alone match the tracer's own accounting exactly, and the
per-operation breakdown lands within 1% of the paper's numbers.
"""

import collections
import sys

import pytest

from repro.core.bypass import install_bypass
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.exp import claims
from repro.exp.experiments.ablations import multiplexed_machine
from repro.obs.export import charge_totals, trace_breakdown
from repro.obs.observer import Observer, capture_metrics
from repro.sim.trace import Tracer
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE

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


# -- the switch_ns histogram ----------------------------------------------


def _stock(mode):
    return lambda: Machine(mode=mode)


def _bypass():
    machine = Machine(mode=ExecutionMode.HW_SVT)
    install_bypass(machine)
    return machine


#: Every engine the simulator builds: the three modes' stock engines,
#: HW SVt with the L2->L1 bypass, and HW SVt with L1 multiplexed.
ENGINES = {
    "baseline": _stock(ExecutionMode.BASELINE),
    "sw_svt": _stock(ExecutionMode.SW_SVT),
    "hw_svt": _stock(ExecutionMode.HW_SVT),
    "bypass": _bypass,
    "multiplexed": multiplexed_machine,
}


def _drive(machine):
    """Nested exits (one with an aux trap), a direct exit and both
    interrupt paths: the engine charges of a fault-free run."""
    machine.run_program(isa.Program([isa.cpuid()], repeat=3), level=2)
    machine.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 50_000))
    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 0x30}))
    machine.stack.inject_irq_into_l2(0x60)
    machine.stack.inject_irq_into_l1(0x61)


def _charges(monkeypatch, build, observed):
    """Run :func:`_drive`; every tracer charge as ``(ns, category,
    made by the engine)``, and the observer (or None)."""
    charges = []
    original = Tracer.charge
    engines = []

    def spy(self, ns, category):
        caller = sys._getframe(1).f_locals.get("self")
        charges.append((ns, category,
                        any(caller is engine for engine in engines)))
        return original(self, ns, category)

    with monkeypatch.context() as patch:
        patch.setattr(Tracer, "charge", spy)
        if observed:
            with capture_metrics() as observer:
                machine = build()
        else:
            observer, machine = None, build()
        engines.append(machine.engine)
        del charges[:]                      # boot and set-up
        _drive(machine)
    return charges, observer


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_switch_ns_observes_every_nonzero_engine_charge(monkeypatch,
                                                        engine):
    charges, observer = _charges(monkeypatch, ENGINES[engine], True)
    expected = collections.Counter(
        category for ns, category, by_engine in charges
        if by_engine and ns)
    assert expected, "the drive made no engine charge"
    recorded = {}
    for category in {category for _, category, _ in charges}:
        histogram = observer.metrics.histogram("switch_ns",
                                               category=category)
        if histogram is not None:
            recorded[category] = histogram.count
    assert recorded == dict(expected)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_observer_changes_no_charge(monkeypatch, engine):
    """Observed and unobserved machines make the same charges, in the
    same order: binding the tracer's charge into an unobserved engine
    forks no path."""
    plain, _ = _charges(monkeypatch, ENGINES[engine], False)
    observed, _ = _charges(monkeypatch, ENGINES[engine], True)
    assert observed == plain
