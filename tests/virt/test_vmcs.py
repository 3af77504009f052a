"""VMCS field registry, shadow semantics, dirty tracking."""

import pytest

from repro.errors import VmcsError
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.vmcs import FieldRegistry, Vmcs


def test_registry_has_the_svt_fields():
    # Paper Table 2: three new VMCS fields.
    for name in ("svt_visor", "svt_vm", "svt_nested"):
        assert FieldRegistry.get(name).category == "svt"


def test_unknown_field_rejected():
    with pytest.raises(VmcsError):
        FieldRegistry.get("guest_xcr17")
    with pytest.raises(VmcsError):
        Vmcs("x").read("nonsense")


@pytest.mark.parametrize("access", [
    lambda vmcs: vmcs.read("nonsense"),
    lambda vmcs: vmcs.write("nonsense", 1),
    lambda vmcs: vmcs.write("nonsense", 1, force=True),
    lambda vmcs: vmcs.guest_read("nonsense"),
    lambda vmcs: vmcs.guest_write("nonsense", 1),
    lambda vmcs: vmcs.restore({"guest_rip": 2, "nonsense": 1}),
], ids=["read", "write", "forced write", "guest_read", "guest_write",
        "restore"])
def test_unknown_field_rejected_on_every_path(access):
    traps = []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: traps.append((k, f)))
    vmcs.write("guest_rip", 1)
    with pytest.raises(VmcsError, match="unknown VMCS field 'nonsense'"):
        access(vmcs)
    assert traps == []                      # nothing trapped first
    assert vmcs.snapshot() == {"guest_rip": 1}


def test_address_bearing_fields_listed():
    addressy = FieldRegistry.names(address_bearing=True)
    assert "ept_pointer" in addressy
    assert "msr_bitmap_addr" in addressy
    assert "guest_rip" not in addressy


def test_exit_info_fields_read_only():
    vmcs = Vmcs("t")
    with pytest.raises(VmcsError):
        vmcs.write("exit_reason", "CPUID")
    vmcs.write("exit_reason", "CPUID", force=True)  # hardware path
    assert vmcs.read("exit_reason") == "CPUID"


def test_unwritten_fields_read_zero():
    assert Vmcs("t").read("guest_rip") == 0


def test_shadowed_guest_access_does_not_trap():
    traps = []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: traps.append((k, f)))
    vmcs.guest_read("exit_reason")       # shadow-readable
    vmcs.guest_write("guest_rip", 0x10)  # shadow-writable
    assert traps == []


def test_non_shadowed_guest_access_traps():
    # Paper Alg. 1 lines 8-10: L1's privileged VMCS accesses exit to L0.
    traps = []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: traps.append((k, f)))
    vmcs.guest_write("ept_pointer", 0x5000)
    vmcs.guest_read("host_rip")
    assert traps == [("VMWRITE", "ept_pointer"), ("VMREAD", "host_rip")]


def test_guest_access_without_callback_is_silent():
    vmcs = Vmcs("t")
    vmcs.guest_write("ept_pointer", 1)
    assert vmcs.read("ept_pointer") == 1


def test_record_exit_populates_exit_area():
    vmcs = Vmcs("t")
    info = ExitInfo(ExitReason.CPUID, {"leaf": 3}, guest_rip=0x44,
                    instruction_length=2)
    vmcs.record_exit(info)
    assert vmcs.read("exit_reason") == ExitReason.CPUID
    assert vmcs.read("exit_qualification") == {"leaf": 3}
    assert vmcs.read("guest_rip") == 0x44
    assert vmcs.read("instruction_length") == 2


def test_snapshot_is_copy():
    vmcs = Vmcs("t")
    vmcs.write("guest_rip", 1)
    snap = vmcs.snapshot()
    vmcs.write("guest_rip", 2)
    assert snap["guest_rip"] == 1


def test_exit_info_rejects_unknown_reason():
    with pytest.raises(ValueError):
        ExitInfo("WARP_FAULT")
