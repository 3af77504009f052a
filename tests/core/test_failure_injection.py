"""Failure injection: the library must fail loudly and precisely."""

import pytest

from repro.core.channel import Command, CommandKind, CommandRing
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.cpu.prf import PhysicalRegisterFile, RenameMap
from repro.cpu.registers import RegNames
from repro.errors import (
    ChannelError,
    EptFault,
    PrfExhausted,
    VirtualizationError,
)


def test_prf_exhaustion_during_context_binding():
    # A PRF too small for three full contexts must exhaust on bind, not
    # corrupt state.
    prf = PhysicalRegisterFile(len(RegNames.ALL) + 4)
    first = RenameMap(prf)
    second = RenameMap(prf)
    for name in RegNames.ALL:
        first.write(name, 1)
    with pytest.raises(PrfExhausted):
        for name in RegNames.ALL:
            second.write(name, 2)
    prf.check_invariants()   # free list still consistent after the blowup


def test_ring_overflow_reports_ring_name():
    ring = CommandRing("vcpu7.req", capacity=1)
    ring.push(Command(CommandKind.VM_TRAP))
    with pytest.raises(ChannelError, match="vcpu7.req"):
        ring.push(Command(CommandKind.VM_TRAP))


def test_double_trap_without_resume_is_a_protocol_error():
    machine = Machine(mode=ExecutionMode.SW_SVT)
    machine.channels.send_trap({})
    with pytest.raises(ChannelError):
        machine.channels.send_trap({})


def test_mmio_to_unmapped_address_is_not_an_exit():
    # An address with no device behind it: the classifier treats it as a
    # RAM access (no exit) rather than inventing a device.
    machine = Machine()
    before = machine.l2_vm.vcpu.exits
    machine.run_instruction(isa.mmio_write(0x1000, 1))
    assert machine.l2_vm.vcpu.exits == before


def test_ept_violation_outside_ram_and_devices():
    machine = Machine()
    with pytest.raises(EptFault):
        machine.l2_vm.ept.translate(0x9999_0000_0000)


def test_io_port_without_device_fails_in_the_handler():
    machine = Machine()
    with pytest.raises(VirtualizationError, match="no device at port"):
        machine.run_instruction(isa.io_write(0x3F8, 0x41))


def test_wait_until_with_no_events_raises():
    machine = Machine()
    with pytest.raises(VirtualizationError, match="no pending events"):
        machine.wait_until(lambda: False)


def test_wait_until_respects_limit():
    machine = Machine()
    machine.sim.after(10**12, lambda: None)
    with pytest.raises(VirtualizationError, match="limit exceeded"):
        machine.wait_until(lambda: False, limit_ns=1000)


def test_unbound_vcpu_unbind_rejected():
    machine = Machine(mode=ExecutionMode.BASELINE)
    with pytest.raises(VirtualizationError):
        machine.l2_vm.vcpu.unbind_context()


def test_hw_context_rebinding_after_eviction_preserves_state():
    # Multiplexing round trip under pressure (paper §3.1): evict, check
    # memory home, rebind, check the PRF home — no value loss.
    machine = Machine(mode=ExecutionMode.HW_SVT)
    vcpu = machine.l2_vm.vcpu
    machine.run_instruction(isa.cpuid(leaf=5))
    rax = vcpu.read("rax")
    vcpu.unbind_context()
    assert vcpu.read("rax") == rax
    vcpu.bind_context(machine.core.context(2))
    assert vcpu.read("rax") == rax


def test_classifier_rejects_nonsense_instruction():
    from repro.cpu.isa import Instruction

    machine = Machine()
    with pytest.raises(VirtualizationError):
        machine.run_instruction(Instruction("teleport"))


def test_simulation_is_isolated_between_machines():
    # Two machines never share simulators, tracers or devices.
    a, b = Machine(), Machine()
    a.run_instruction(isa.cpuid())
    assert b.sim.now == 0
    assert not b.tracer.totals
    assert b.l2_vm.vcpu.exits == 0
