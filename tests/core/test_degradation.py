"""Machine-level recovery contracts: degrade gracefully or report loudly."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.errors import DeadlockError
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.watchdog import Watchdog

#: Every ring push is dropped: the wait can only resolve via recovery.
ALL_DROPPED = FaultPlan(seed=7, rates=((FaultKind.RING_DROP, 1.0),))


def test_exhausted_watchdog_degrades_to_baseline_and_finishes():
    machine = Machine(
        mode=ExecutionMode.SW_SVT, faults=ALL_DROPPED,
        watchdog=Watchdog(max_strikes=2),
    )
    machine.run_program(isa.Program([isa.cpuid()], repeat=5))
    engine = machine.engine
    assert engine.degraded
    assert engine.degrade_events
    event = engine.degrade_events[0]
    assert event.site in ("enter_l1", "leave_l1")
    assert event.strikes == 2
    assert machine.faults.degraded >= 1
    assert machine.watchdog.counters()["exhaustions"] >= 1
    # Post-degradation the stock path still executes correctly.
    machine.run_program(isa.Program([isa.cpuid()], repeat=3))


def test_degraded_run_costs_match_baseline_per_op():
    chaotic = Machine(mode=ExecutionMode.SW_SVT, faults=ALL_DROPPED,
                      watchdog=Watchdog(max_strikes=1))
    chaotic.run_program(isa.Program([isa.cpuid()]))
    assert chaotic.engine.degraded
    start = chaotic.sim.now
    chaotic.run_program(isa.Program([isa.cpuid()], repeat=4))
    degraded_ns = (chaotic.sim.now - start) / 4

    baseline = Machine(mode=ExecutionMode.BASELINE)
    baseline.run_program(isa.Program([isa.cpuid()]))
    start = baseline.sim.now
    baseline.run_program(isa.Program([isa.cpuid()], repeat=4))
    baseline_ns = (baseline.sim.now - start) / 4
    assert degraded_ns == baseline_ns


def test_no_watchdog_raises_structured_deadlock_report():
    machine = Machine(mode=ExecutionMode.SW_SVT, faults=ALL_DROPPED,
                      watchdog=False)
    with pytest.raises(DeadlockError) as excinfo:
        machine.run_program(isa.Program([isa.cpuid()]))
    report = excinfo.value.report
    assert report is not None
    assert report.waiters
    assert any("svt" in waiter.name for waiter in report.waiters)


def test_armed_but_quiet_plan_never_degrades():
    machine = Machine(mode=ExecutionMode.SW_SVT,
                      faults=FaultPlan(seed=7))
    machine.run_program(isa.Program([isa.cpuid()], repeat=5))
    assert not machine.engine.degraded
    assert machine.watchdog.counters()["strikes"] == 0
