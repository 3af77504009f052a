"""VM containers and device attachment."""

import pytest

from repro.errors import EptFault, VirtualizationError
from repro.io.device import MmioDevice
from repro.virt.vm import VirtualMachine


class NullDevice(MmioDevice):
    def on_kick(self, queue_index):
        pass


def test_ram_mapping_created():
    vm = VirtualMachine("g", 1, ram_mb=8)
    base_hpa = VirtualMachine.RAM_BASE_HPA + (1 << 36)
    ram_end = 8 * 1024 * 1024
    assert vm.ept.translate(0x0) == base_hpa
    assert vm.ept.translate(ram_end - 1) == base_hpa + ram_end - 1
    with pytest.raises(EptFault):
        vm.ept.translate(ram_end)


def test_ram_target_base_override():
    vm = VirtualMachine("nested", 2, ram_mb=8, ram_target_base=0x100000)
    assert vm.ept.translate(0x10) == 0x100010


def test_needs_a_vcpu():
    with pytest.raises(VirtualizationError):
        VirtualMachine("g", 1, n_vcpus=0)


def test_vcpu_naming():
    vm = VirtualMachine("g", 2, ram_mb=8, n_vcpus=2)
    assert vm.vcpu.name == "g.vcpu0"
    assert vm.vcpus[1].name == "g.vcpu1"
    assert all(v.level == 2 for v in vm.vcpus)


def test_attach_mmio_device_and_lookup():
    vm = VirtualMachine("g", 1, ram_mb=8)
    device = NullDevice("nic", 0xFE000000)
    vm.attach_mmio_device(device, 0xFE000000)
    assert vm.device_at(0xFE000004) is device
    assert vm.device_at(0x0) is None


def test_attach_port_device():
    vm = VirtualMachine("g", 1, ram_mb=8)
    device = NullDevice("ser", 0x0)
    vm.attach_port_device(device, 0x3F8)
    assert vm.io_ports[0x3F8] is device
    with pytest.raises(VirtualizationError):
        vm.attach_port_device(device, 0x3F8)
