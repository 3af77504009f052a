"""Timestamp-counter virtualization (the paper's §2.1 policy example)."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.virt.exits import ExitReason
from repro.virt.transform import L0Policy


def tsc_value(machine, level=2):
    vm = machine.l2_vm if level == 2 else machine.l1_vm
    return (vm.vcpu.read("rdx") << 32) | vm.vcpu.read("rax")


def test_l2_rdtsc_traps_because_l0_forces_it():
    # L1 passed the TSC through, but L0's policy merged force_tsc_exit
    # into vmcs02 — the exact §2.1 scenario.
    machine = Machine()
    assert machine.stack.vmcs02.force_tsc_exit
    machine.run_instruction(isa.rdtsc())
    assert machine.l0.exit_counts[ExitReason.RDTSC] == 1
    # Direct handling: L1 never sees it.
    assert machine.l1.exit_counts.get(ExitReason.RDTSC, 0) == 0


def test_l1_rdtsc_does_not_trap():
    machine = Machine()
    machine.elapse(5_000)
    exits = machine.l1_vm.vcpu.exits
    machine.run_instruction(isa.rdtsc(), level=1)
    assert machine.l1_vm.vcpu.exits == exits
    assert tsc_value(machine, level=1) > 0


def test_tsc_advances_with_simulated_time():
    machine = Machine()
    machine.run_instruction(isa.rdtsc())
    first = tsc_value(machine)
    machine.elapse(1_000_000)
    machine.run_instruction(isa.rdtsc())
    assert tsc_value(machine) > first + 1_000_000  # 2.4 ticks/ns


def test_tsc_offset_applied_on_trap_path():
    machine = Machine()
    machine.stack.vmcs02.write("tsc_offset", 10**12)
    machine.run_instruction(isa.rdtsc())
    assert tsc_value(machine) >= 10**12


def test_policy_can_disable_forced_trapping():
    machine = Machine()
    machine.stack.vmcs02.force_tsc_exit = False
    exits = machine.l2_vm.vcpu.exits
    machine.run_instruction(isa.rdtsc())
    assert machine.l2_vm.vcpu.exits == exits   # direct read
    assert tsc_value(machine) >= 0


def test_rdtsc_trap_costs_a_direct_exit():
    times = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        start = machine.sim.now
        machine.run_instruction(isa.rdtsc())
        times[mode] = machine.sim.now - start
    # A direct (L0-only) exit: HW SVt elides its switch+lazy, SW SVt
    # cannot (the L2<->L0 path is stock).
    assert times[ExecutionMode.HW_SVT] < times[ExecutionMode.BASELINE]
    assert times[ExecutionMode.SW_SVT] == times[ExecutionMode.BASELINE]


def test_policy_merge_survives_transform_roundtrip():
    machine = Machine()
    assert machine.l0.policy.force_tsc_exit
    # Re-running the 12->02 transform (as every reflection does) keeps
    # the forced trap regardless of what L1 wants.
    machine.run_instruction(isa.cpuid())
    assert machine.stack.vmcs02.force_tsc_exit


def test_default_policy_object():
    assert L0Policy().force_tsc_exit is True
