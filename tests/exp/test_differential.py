"""Differential test: the three execution modes are state-equivalent.

Paper §3 promises transparency — an end-user VM benefits from SVt
without changes.  The mode-equivalence fuzz (``tests/core``) checks the
guest-visible registers; this battery goes deeper and differential-tests
the FULL final architectural state of the machine across BASELINE,
SW_SVT and HW_SVT: every vCPU register, the virtualized MSR stores, the
EPT mappings, and every VMCS field except the ``svt_*`` ones (which
exist precisely to differ between modes).

It also pins the experiment registry's size: the paper reproduction
covers a fixed set of experiments, and a silently dropped registration
would otherwise go unnoticed by ``repro all``.
"""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.cpu.registers import RegNames
from repro.exp import registry
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE
from repro.virt.vmcs import FieldRegistry

#: Instruction battery: one of each trap class the hypervisors
#: distinguish, plus untrapped fast-path work between them.
BATTERY = [
    isa.alu(300),
    isa.cpuid(leaf=0),
    isa.alu(50),
    isa.cpuid(leaf=7),
    isa.wrmsr(MSR_TSC_DEADLINE, 123_456),
    isa.rdmsr(MSR_TSC_DEADLINE),
    isa.wrmsr(0x110, 77),            # untrapped MSR
    isa.rdmsr(0x110),
    isa.wrmsr(MSR_APIC_EOI, 0),
    isa.vmcall(number=1),
    isa.mmio_read(0x0400_0000),
    isa.hlt(),
    isa.alu(10),
]

#: VMCS fields that are *supposed* to differ across modes.
SVT_FIELDS = {name for name, field in FieldRegistry.FIELDS.items()
              if field.category == "svt"}


def _vcpu_state(vcpu):
    state = {name: vcpu.read(name) for name in RegNames.ALL}
    state["msrs"] = dict(vcpu.msrs)
    state["halted"] = vcpu.halted
    return state


def _ept_state(ept):
    return {"ranges": list(ept._ranges),
            "mmio": [(r.base, r.size) for r in ept._mmio]}


def _vmcs_state(vmcs):
    return {name: value for name, value in vmcs.snapshot().items()
            if name not in SVT_FIELDS}


def _final_state(mode):
    machine = Machine(mode=mode)
    for instruction in BATTERY:
        machine.run_instruction(instruction)
        machine.l2_vm.vcpu.halted = False
    stack = machine.stack
    return {
        "l2_vcpu": _vcpu_state(machine.l2_vm.vcpu),
        "l1_vcpu": _vcpu_state(machine.l1_vm.vcpu),
        "ept12": _ept_state(stack.ept12),
        "ept01": _ept_state(stack.ept01),
        "vmcs02": _vmcs_state(stack.vmcs02),
        "vmcs12": _vmcs_state(stack.vmcs12),
        "vmcs01": _vmcs_state(stack.vmcs01),
    }


@pytest.fixture(scope="module")
def final_states():
    return {mode: _final_state(mode) for mode in ExecutionMode.ALL}


@pytest.mark.parametrize("mode", [ExecutionMode.SW_SVT,
                                  ExecutionMode.HW_SVT])
@pytest.mark.parametrize("piece", ["l2_vcpu", "l1_vcpu", "ept12",
                                   "ept01", "vmcs02", "vmcs12",
                                   "vmcs01"])
def test_mode_state_matches_baseline(final_states, mode, piece):
    assert final_states[mode][piece] \
        == final_states[ExecutionMode.BASELINE][piece]


def test_battery_actually_exercised_the_traps(final_states):
    """Guard against the battery silently degenerating: the MSR writes,
    both trapped and untrapped, must be visible in the final state."""
    vcpu = final_states[ExecutionMode.BASELINE]["l2_vcpu"]
    assert vcpu["msrs"].get(MSR_TSC_DEADLINE) == 123_456
    assert vcpu["msrs"].get(0x110) == 77


def test_svt_fields_exist_and_are_excluded():
    assert SVT_FIELDS == {"svt_visor", "svt_vm", "svt_nested"}


def test_registry_has_the_full_experiment_set():
    registry.ensure_loaded()
    assert len(registry.names()) == 22
