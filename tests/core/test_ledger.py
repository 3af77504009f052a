"""The tracer's ledger accounts for every nanosecond the clock moves.

Synchronous code moves the clock only through
:meth:`repro.sim.trace.Tracer.charge`, and an event that falls due
fires inside a charge, at a time the charge covers.  So over a loop
that starts and ends with no event pending, the clock must advance by
exactly the per-category time booked meanwhile — in every engine the
machine can run, including the ones installed on a built machine.  A
charge that moved the clock without booking it (or the reverse) fails
here.
"""

import pytest

from repro.core.bypass import install_bypass
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.exp.experiments.ablations import multiplexed_machine
from repro.virt.hypervisor import MSR_TSC_DEADLINE
from repro.virt.l3 import install_third_level

PASSES = 20

#: One pass: a reflected exit; a deadline-timer write L1 handles, whose
#: timer falls due at once and fires inside the next charge (an
#: interrupt exit follows); and an L0-owned exit (L0's policy forces
#: the TSC read to trap).  Nothing stays pending between passes.
LOOP = (isa.cpuid(), isa.wrmsr(MSR_TSC_DEADLINE, 0), isa.rdtsc())


def _level2(machine):
    return machine, machine.run_program


def _level3(mode):
    machine = Machine(mode)
    l3 = install_third_level(machine)
    return machine, l3.run_program


def _bypass():
    machine = Machine(ExecutionMode.HW_SVT)
    install_bypass(machine)
    return _level2(machine)


CONFIGURATIONS = {
    "baseline": lambda: _level2(Machine(ExecutionMode.BASELINE)),
    "sw_svt": lambda: _level2(Machine(ExecutionMode.SW_SVT)),
    "hw_svt": lambda: _level2(Machine(ExecutionMode.HW_SVT)),
    "hw_svt_bypass": _bypass,
    "hw_svt_multiplexed": lambda: _level2(multiplexed_machine()),
    "l3_baseline": lambda: _level3(ExecutionMode.BASELINE),
    "l3_hw_svt": lambda: _level3(ExecutionMode.HW_SVT),
}


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_clock_advances_by_exactly_the_ledger(name):
    machine, run = CONFIGURATIONS[name]()
    # The L3 model classifies no RDTSC; its loop is the other two.
    loop = LOOP[:2] if name.startswith("l3_") else LOOP
    run(isa.Program(list(loop)))                         # warm-up
    assert machine.sim.peek_next_time() is None
    before = machine.tracer.snapshot()
    start = machine.sim.now
    run(isa.Program(list(loop), repeat=PASSES))
    assert machine.sim.peek_next_time() is None
    elapsed = machine.sim.now - start
    assert elapsed > 0
    assert elapsed == sum(machine.tracer.since(before).values())
