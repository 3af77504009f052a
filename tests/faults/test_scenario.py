"""Chaos scenarios: scrubber and resilience-matrix cells."""

import pytest

from repro.core.mode import ExecutionMode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.scenario import VmcsScrubber, run_chaos_cell
from repro.virt.vmcs import Vmcs

HOT = FaultPlan(seed=2019, rate=0.3)


# -- VmcsScrubber ----------------------------------------------------------

def make_vmcs():
    vmcs = Vmcs("vmcs02")
    vmcs.write("exception_bitmap", 0x4000, force=True)
    vmcs.write("svt_visor", 3, force=True)
    return vmcs


def test_scrubber_repairs_injected_corruption():
    injector = FaultInjector(FaultPlan(seed=9, rate=1.0))
    vmcs = make_vmcs()
    scrubber = VmcsScrubber(vmcs, faults=injector)
    corruption = injector.corrupt_vmcs(vmcs)
    repaired = scrubber.scrub()
    assert corruption.field in repaired
    assert vmcs.read(corruption.field) == corruption.old_value
    assert injector.recovered == {FaultKind.VMCS_FLIP: 1}
    assert scrubber.repairs == [tuple(repaired)]


def test_scrubber_noop_on_clean_vmcs():
    scrubber = VmcsScrubber(make_vmcs())
    assert scrubber.scrub() == []
    assert scrubber.repairs == []


def test_scrubber_rearm_adopts_legitimate_writes():
    vmcs = make_vmcs()
    scrubber = VmcsScrubber(vmcs)
    vmcs.write("tsc_offset", 777, force=True)
    scrubber.rearm()
    assert scrubber.scrub() == []
    assert vmcs.read("tsc_offset") == 777


# -- run_chaos_cell ---------------------------------------------------------

@pytest.mark.parametrize("mode", ExecutionMode.ALL)
def test_chaos_cell_resolves_every_fault(mode):
    # ISSUE acceptance: watchdog enabled, every fault class ends in
    # recovery or a recorded degradation — never a hang.
    cell = run_chaos_cell(mode, HOT, iterations=20)
    assert cell["deadlock"] is None
    assert cell["completed_iterations"] == 20
    assert cell["injected_total"] > 0
    # Every injected fault is accounted: recovered, or the run degraded.
    if cell["counters"]["degraded"] == 0:
        assert cell["recovered_total"] == cell["injected_total"]
    else:
        assert cell["degrade_events"]


def test_chaos_cell_zero_rate_matches_fault_free_machine():
    # ISSUE acceptance: the zero-fault-rate cell reproduces seed results
    # exactly — same sim-ns per op as a Machine with no fault layer.
    from repro.core.system import Machine
    from repro.cpu import isa

    iterations = 20
    cell = run_chaos_cell(ExecutionMode.SW_SVT,
                          FaultPlan(seed=2019), iterations=iterations)
    assert cell["injected_total"] == 0

    machine = Machine(mode=ExecutionMode.SW_SVT)
    machine.run_program(isa.Program([isa.cpuid()]))       # same warmup
    start = machine.sim.now
    machine.run_program(isa.Program([isa.cpuid()], repeat=iterations))
    clean_ns_per_op = (machine.sim.now - start) / iterations
    assert cell["ns_per_op"] == clean_ns_per_op


def test_chaos_cell_ring_faults_only_under_sw_svt():
    baseline = run_chaos_cell(ExecutionMode.BASELINE, HOT,
                              iterations=15)
    ring_kinds = set(FaultKind.RING)
    assert not ring_kinds & set(baseline["counters"]["injected"])
    sw = run_chaos_cell(ExecutionMode.SW_SVT, HOT, iterations=15)
    assert ring_kinds & set(sw["counters"]["injected"])
    assert sw["retransmissions"] > 0


def test_chaos_cell_is_deterministic():
    a = run_chaos_cell(ExecutionMode.SW_SVT, HOT, iterations=15)
    b = run_chaos_cell(ExecutionMode.SW_SVT, HOT, iterations=15)
    assert a == b
