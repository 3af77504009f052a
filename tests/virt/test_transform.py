"""vmcs12 <-> vmcs02 transformations (paper Fig. 2 / §2.1)."""

import pytest

from repro.errors import EptFault
from repro.sim import sanitizer
from repro.virt.ept import EptTable
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.transform import (
    L0Policy,
    transform_02_to_12,
    transform_12_to_02,
)
from repro.virt.vmcs import Vmcs


@pytest.fixture
def ept01():
    table = EptTable("ept01")
    table.map_range(0x0, 0x1000000, 0x40000000)
    return table


def make_vmcs12():
    vmcs12 = Vmcs("vmcs12")
    vmcs12.write("guest_rip", 0x1000)
    vmcs12.write("guest_cr3", 0x2000)
    vmcs12.write("msr_bitmap_addr", 0x3000)
    vmcs12.write("ept_pointer", 0x5000)
    vmcs12.trapped_msrs.add(0x6E0)
    return vmcs12


def test_addresses_translated_to_host_physical(ept01):
    # Paper: "L0 must thus transform these addresses into the actual
    # host physical addresses".
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    translated = transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("msr_bitmap_addr") == 0x40003000
    assert vmcs02.read("ept_pointer") == 0x40005000
    assert set(translated) == {"msr_bitmap_addr", "ept_pointer"}


def test_guest_state_copied_untranslated(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("guest_rip") == 0x1000
    assert vmcs02.read("guest_cr3") == 0x2000


def test_l0_policy_forced_on_top_of_l1(ept01):
    # Paper: "L0 configures vmcs02 to ensure access to these resources
    # trigger a VM trap, regardless of the configuration set by L1".
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.force_tsc_exit = False
    policy = L0Policy(force_tsc_exit=True, forced_msr_traps={0x10})
    transform_12_to_02(vmcs12, vmcs02, ept01, policy)
    assert vmcs02.force_tsc_exit is True
    assert vmcs02.trapped_msrs == {0x6E0, 0x10}


def test_host_state_belongs_to_l0(ept01):
    # A trap from L2 must always land in L0 first (paper Fig. 1).
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.write("host_rip", 0x1234)  # whatever L1 put there
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("host_rip") != 0x1234


def test_composed_ept_attached(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    marker = EptTable("composed")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy(),
                       composed_ept=marker)
    assert vmcs02.ept is marker


def test_exit_state_reflected_back(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    vmcs02.record_exit(ExitInfo(ExitReason.CPUID, {"leaf": 1},
                                guest_rip=0x1002))
    transform_02_to_12(vmcs02, vmcs12, ept01)
    assert vmcs12.read("exit_reason") == ExitReason.CPUID
    assert vmcs12.read("guest_rip") == 0x1002


def test_guest_physical_address_inverse_translated(ept01):
    # Exit info carries host-physical addresses; L1 must see its own
    # guest-physical space.
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    vmcs02.write("guest_physical_address", 0x40007000, force=True)
    transform_02_to_12(vmcs02, vmcs12, ept01)
    assert vmcs12.read("guest_physical_address") == 0x7000


def test_roundtrip_preserves_l1_visible_guest_state(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    before = {name: vmcs12.read(name)
              for name in ("guest_rip", "guest_cr3", "guest_rsp")}
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    transform_02_to_12(vmcs02, vmcs12, ept01)
    after = {name: vmcs12.read(name)
             for name in ("guest_rip", "guest_cr3", "guest_rsp")}
    assert before == after


class RecordingSanitizer:
    """Stands in for the ordering sanitizer; keeps every access."""

    def __init__(self):
        self.accesses = []

    def record(self, owner, field, op, site):
        self.accesses.append((owner, field, op, site))


@pytest.fixture
def recorder(monkeypatch):
    stub = RecordingSanitizer()
    monkeypatch.setattr(sanitizer, "ACTIVE", stub)
    return stub


#: What the sanitizer records for one vmcs12 -> vmcs02 transform: a
#: read of the source then a write of the destination per field, guest
#: state first, then controls, then L0's own host_rip.
SEQUENCE_12_TO_02 = [
    ("vmcs:vmcs12", "guest_rip", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_rip", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_rsp", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_rsp", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_rflags", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_rflags", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_cr0", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_cr0", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_cr3", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_cr3", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_cr4", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_cr4", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_efer", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_efer", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_activity_state", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_activity_state", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "guest_interruptibility", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "guest_interruptibility", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "pin_based_controls", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "pin_based_controls", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "proc_based_controls", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "proc_based_controls", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "secondary_controls", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "secondary_controls", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "exception_bitmap", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "exception_bitmap", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "exit_controls", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "exit_controls", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "entry_controls", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "entry_controls", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "entry_interruption_info", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "entry_interruption_info", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "tsc_offset", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "tsc_offset", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "preemption_timer_value", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "preemption_timer_value", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "msr_bitmap_addr", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "msr_bitmap_addr", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "io_bitmap_addr", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "io_bitmap_addr", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "ept_pointer", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "ept_pointer", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "virtual_apic_addr", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "virtual_apic_addr", "w", "Vmcs.write"),
    ("vmcs:vmcs12", "vmcs_link_pointer", "r", "Vmcs.read"),
    ("vmcs:vmcs02", "vmcs_link_pointer", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "host_rip", "w", "Vmcs.write"),
]

#: The same for vmcs02 -> vmcs12: guest state, then exit information.
SEQUENCE_02_TO_12 = [
    ("vmcs:vmcs02", "guest_rip", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_rip", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_rsp", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_rsp", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_rflags", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_rflags", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_cr0", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_cr0", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_cr3", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_cr3", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_cr4", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_cr4", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_efer", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_efer", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_activity_state", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_activity_state", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_interruptibility", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_interruptibility", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "exit_reason", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "exit_reason", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "exit_qualification", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "exit_qualification", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_linear_address", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_linear_address", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "guest_physical_address", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "guest_physical_address", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "instruction_length", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "instruction_length", "w", "Vmcs.write"),
    ("vmcs:vmcs02", "interruption_info", "r", "Vmcs.read"),
    ("vmcs:vmcs12", "interruption_info", "w", "Vmcs.write"),
]


def test_sanitizer_sees_per_field_accesses_in_order(ept01, recorder):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    recorder.accesses.clear()
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert recorder.accesses == SEQUENCE_12_TO_02
    vmcs02.write("guest_physical_address", 0x40007000, force=True)
    recorder.accesses.clear()
    transform_02_to_12(vmcs02, vmcs12, ept01)
    assert recorder.accesses == SEQUENCE_02_TO_12


WRITTEN_BEFORE_EPT_POINTER = {
    "guest_rip", "guest_rsp", "guest_rflags", "guest_cr0", "guest_cr3",
    "guest_cr4", "guest_efer", "guest_activity_state",
    "guest_interruptibility", "pin_based_controls", "proc_based_controls",
    "secondary_controls", "exception_bitmap", "exit_controls",
    "entry_controls", "entry_interruption_info", "tsc_offset",
    "preemption_timer_value", "msr_bitmap_addr", "io_bitmap_addr",
}


def test_translate_failure_leaves_earlier_fields_written(ept01, recorder):
    # ept_pointer lies outside ept01: every field before it is already
    # in vmcs02; it, the fields after it and host_rip are not, and the
    # sanitizer saw ept_pointer read but not written.
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.write("ept_pointer", 0x2000000)
    recorder.accesses.clear()
    with pytest.raises(EptFault) as excinfo:
        transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert excinfo.value.gpa == 0x2000000
    assert recorder.accesses == SEQUENCE_12_TO_02[:41]
    assert recorder.accesses[-1] == (
        "vmcs:vmcs12", "ept_pointer", "r", "Vmcs.read")
    assert set(vmcs02.snapshot()) == WRITTEN_BEFORE_EPT_POINTER
    assert vmcs02.read("msr_bitmap_addr") == 0x40003000


def test_inverse_failure_leaves_earlier_fields_written(ept01, recorder):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    vmcs02.record_exit(ExitInfo(ExitReason.CPUID, {"leaf": 1},
                                guest_rip=0x1002))
    vmcs02.write("guest_physical_address", 0x90000000, force=True)
    recorder.accesses.clear()
    with pytest.raises(EptFault):
        transform_02_to_12(vmcs02, vmcs12, ept01)
    assert recorder.accesses == SEQUENCE_02_TO_12[:25]
    assert recorder.accesses[-1] == (
        "vmcs:vmcs02", "guest_physical_address", "r", "Vmcs.read")
    assert vmcs12.read("guest_rip") == 0x1002
    assert vmcs12.read("exit_reason") == ExitReason.CPUID
    assert "guest_physical_address" not in vmcs12.snapshot()
