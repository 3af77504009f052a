"""Architectural register state."""

import pytest

from repro.cpu.registers import ArchRegisters, RegNames
from repro.errors import VirtualizationError


def test_register_set_is_dozens():
    # Paper §2.3: a context switch moves "in excess of various dozens of
    # values" — our switched set must be at least three dozen.
    assert len(RegNames.ALL) >= 36


def test_unwritten_registers_read_zero():
    assert ArchRegisters().read("rax") == 0


def test_write_then_read():
    regs = ArchRegisters()
    regs.write("rbx", 0xDEAD)
    assert regs.read("rbx") == 0xDEAD


def test_values_truncate_to_64_bits():
    regs = ArchRegisters()
    regs.write("rax", 1 << 70)
    assert regs.read("rax") == 0


def test_unknown_register_rejected():
    with pytest.raises(VirtualizationError):
        ArchRegisters().read("xmm0")
    with pytest.raises(VirtualizationError):
        ArchRegisters().write("es", 1)


def test_non_integer_value_rejected():
    with pytest.raises(VirtualizationError):
        ArchRegisters().write("rax", "nope")


def test_equality_ignores_storage_detail():
    a = ArchRegisters({"rax": 0})
    b = ArchRegisters()
    assert a == b
