"""Port I/O path: IO_INSTRUCTION exits end to end."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.device import PortDevice
from repro.virt.exits import ExitReason

COM1 = 0x3F8


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def serial(machine):
    return PortDevice("com1", COM1).attach(machine.l2_vm)


def test_out_traps_and_reaches_the_device(machine, serial):
    machine.run_instruction(isa.io_write(COM1, 0x41))
    assert serial.transmitted == [0x41]
    # Port I/O from L2 is reflected to L1 (it emulates the device).
    assert machine.l1.exit_counts[ExitReason.IO_INSTRUCTION] == 1
    assert machine.l0.exit_counts[ExitReason.IO_INSTRUCTION] == 0


def test_in_returns_device_value(machine, serial):
    serial.rx_byte = 0x5A
    machine.run_instruction(isa.io_read(COM1))
    assert machine.l2_vm.vcpu.read("rax") == 0x5A


def test_status_register(machine, serial):
    machine.run_instruction(isa.io_read(COM1 + PortDevice.STATUS))
    assert machine.l2_vm.vcpu.read("rax") == 0x60


def test_string_output_order(machine, serial):
    for byte in b"ok\n":
        machine.run_instruction(isa.io_write(COM1, byte))
    assert bytes(serial.transmitted) == b"ok\n"


def test_port_io_identical_across_modes():
    outputs = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        serial = PortDevice("com1", COM1).attach(machine.l2_vm)
        for byte in (1, 2, 3):
            machine.run_instruction(isa.io_write(COM1, byte))
        machine.run_instruction(isa.io_read(COM1 + PortDevice.STATUS))
        outputs[mode] = (list(serial.transmitted),
                         machine.l2_vm.vcpu.read("rax"))
    assert len(set(map(str, outputs.values()))) == 1


def test_port_io_cheaper_under_svt():
    times = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        PortDevice("com1", COM1).attach(machine.l2_vm)
        start = machine.sim.now
        machine.run_instruction(isa.io_write(COM1, 1))
        times[mode] = machine.sim.now - start
    assert times[ExecutionMode.HW_SVT] < times[ExecutionMode.SW_SVT] \
        < times[ExecutionMode.BASELINE]


def test_rip_advances_after_port_io(machine, serial):
    start = machine.l2_vm.vcpu.rip
    machine.run_instruction(isa.io_write(COM1, 7))
    assert machine.l2_vm.vcpu.rip == start + 2
