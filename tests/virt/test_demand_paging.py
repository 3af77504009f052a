"""EPT_VIOLATION / demand paging through the full stack."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.virt.exits import ExitReason

#: A guest-physical page above L2's 32 MB of pre-mapped RAM.
COLD_PAGE = 0x0400_0000


@pytest.fixture
def machine():
    return Machine()


def test_first_touch_faults_and_maps(machine):
    machine.run_instruction(isa.mmio_read(COLD_PAGE + 0x10))
    assert machine.l1.exit_counts[ExitReason.EPT_VIOLATION] == 1
    # L1 installed the mapping in its table for L2.
    assert machine.l2_vm.ept.translate(COLD_PAGE + 0x10) is not None


def test_second_touch_does_not_fault(machine):
    machine.run_instruction(isa.mmio_read(COLD_PAGE))
    exits = machine.l2_vm.vcpu.exits
    machine.run_instruction(isa.mmio_read(COLD_PAGE + 0x800))
    assert machine.l2_vm.vcpu.exits == exits   # same page: no new exit


def test_distinct_pages_fault_independently(machine):
    machine.run_instruction(isa.mmio_read(COLD_PAGE))
    machine.run_instruction(isa.mmio_read(COLD_PAGE + 0x1000))
    assert machine.l1.exit_counts[ExitReason.EPT_VIOLATION] == 2


def test_fault_does_not_advance_rip(machine):
    # The faulting instruction re-executes after the mapping lands.
    start = machine.l2_vm.vcpu.rip
    machine.run_instruction(isa.mmio_read(COLD_PAGE))
    assert machine.l2_vm.vcpu.rip == start


def test_l1_page_table_update_causes_invept_aux_trap(machine):
    machine.run_instruction(isa.mmio_read(COLD_PAGE))
    # The paper's §2.2 aux-exit classes: the VMCS write for the EPT
    # pointer plus the INVEPT both trapped into L0.
    assert machine.stack.aux_exit_counts[ExitReason.INVEPT] == 1
    assert machine.stack.aux_exit_counts["VMWRITE"] >= 1


def test_l0_recomposes_collapsed_table(machine):
    old = machine.stack.composed_ept
    machine.run_instruction(isa.mmio_read(COLD_PAGE))
    new = machine.stack.composed_ept
    assert new is not old
    # The collapsed table resolves the new page all the way to
    # host-physical space.
    hpa = new.translate(COLD_PAGE)
    assert hpa == machine.l1_vm.ept.translate(
        machine.l2_vm.ept.translate(COLD_PAGE)
    )


def test_l1_level_violation_handled_by_l0(machine):
    # L1 touching its own cold page is a single-level violation.
    l1_cold = 0x0800_0000   # beyond L1's 64 MB
    machine.run_instruction(isa.mmio_read(l1_cold), level=1)
    assert machine.l0.exit_counts[ExitReason.EPT_VIOLATION] == 1
    assert machine.l1_vm.ept.translate(l1_cold) is not None


def test_demand_paging_cheaper_under_svt():
    times = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        start = machine.sim.now
        machine.run_instruction(isa.mmio_read(COLD_PAGE))
        times[mode] = machine.sim.now - start
    assert times[ExecutionMode.HW_SVT] < times[ExecutionMode.SW_SVT] \
        < times[ExecutionMode.BASELINE]


def test_modes_agree_on_resulting_mappings():
    mappings = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        machine.run_instruction(isa.mmio_read(COLD_PAGE))
        mappings[mode] = machine.l2_vm.ept.translate(COLD_PAGE)
    assert len(set(mappings.values())) == 1
