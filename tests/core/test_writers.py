"""Register-writer plumbing across modes: where writes actually land."""

import pytest

from repro import ExecutionMode, Machine
from repro.cpu import isa
from repro.sim.trace import Category


def test_hw_direct_exit_writes_via_cross_context():
    # An L0-direct exit (forced RDTSC) writing guest registers under
    # HW SVt must go through ctxtst (charged as CROSS_CONTEXT) and land
    # in the guest's hardware context.
    machine = Machine(mode=ExecutionMode.HW_SVT)
    before = machine.tracer.totals.get(Category.CROSS_CONTEXT, 0)
    machine.elapse(1_000)
    machine.run_instruction(isa.rdtsc())
    assert machine.tracer.totals[Category.CROSS_CONTEXT] > before
    ctx = machine.core.context(2)
    assert ctx.read("rax") == machine.l2_vm.vcpu.read("rax")
    assert machine.l2_vm.vcpu.read("rax") > 0


def test_sw_reflection_applies_writes_only_at_resume():
    # Watch the command rings: the register values L1 computed must be
    # inside the CMD_VM_RESUME payload.
    machine = Machine(mode=ExecutionMode.SW_SVT)
    payloads = []
    original = machine.channels.response.try_push

    def spy(command, now=None):
        payloads.append(dict(command.payload))
        return original(command, now)

    machine.channels.response.try_push = spy
    machine.run_instruction(isa.cpuid(leaf=2))
    assert payloads
    regs = payloads[-1]["regs"]
    assert regs["rax"] == machine.l2_vm.vcpu.read("rax")
    assert "rip" in regs


def test_baseline_writes_land_in_memory_home():
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_instruction(isa.cpuid(leaf=2))
    vcpu = machine.l2_vm.vcpu
    assert not vcpu.is_pinned
    assert vcpu.memory_state.read("rax") == vcpu.read("rax")


def test_channel_round_trip_count_tracks_reflections():
    machine = Machine(mode=ExecutionMode.SW_SVT)
    machine.run_program(isa.Program([isa.cpuid()], repeat=5))
    assert machine.channels.round_trips == 5
    machine.channels.check_invariants()


@pytest.mark.parametrize("mode", ExecutionMode.ALL)
def test_vmcs_guest_rip_tracks_vcpu_rip(mode):
    machine = Machine(mode=mode)
    machine.run_program(isa.Program([isa.cpuid()], repeat=2))
    assert machine.stack.vmcs12.read("guest_rip") \
        == machine.l2_vm.vcpu.rip
