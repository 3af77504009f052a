"""Functional third level (L3) — the §4 escape hatch, live."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.errors import VirtualizationError
from repro.virt.exits import ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE, cpuid_leaf_values
from repro.virt.l3 import ThirdLevelStack, install_third_level


@pytest.fixture
def l3():
    return install_third_level(Machine())


def test_boot_is_one_shot(l3):
    with pytest.raises(VirtualizationError):
        l3.boot()


def test_unbooted_stack_refuses_exits():
    stack = ThirdLevelStack(Machine())
    with pytest.raises(VirtualizationError):
        stack.run_instruction(isa.cpuid())


def test_l3_cpuid_is_emulated_by_l2(l3):
    l3.run_instruction(isa.cpuid(leaf=4))
    vcpu = l3.l3_vm.vcpu
    # L2 filters the leaf (level-2 values), and RIP advanced once.
    assert (vcpu.read("rax"), vcpu.read("rbx"), vcpu.read("rcx"),
            vcpu.read("rdx")) == cpuid_leaf_values(4, 2)
    assert l3.l2_hypervisor.exit_counts[ExitReason.CPUID] == 1


def test_l3_cpuid_costs_one_reflection(l3):
    # CPUID's handler touches only shadowed state: no recursion, so the
    # depth-3 cost matches the depth-2 structure (one reflection).
    elapsed = l3.run_instruction(isa.cpuid())
    assert elapsed == pytest.approx(10_400 - 50, abs=50)


def test_l2_privileged_ops_recurse_through_depth2_exits(l3):
    machine = l3.machine
    before = dict(machine.stack.exit_counts)
    l3.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 10**9))
    # L2's handler touched 3 non-shadowed fields + armed its timer:
    # each one was a *full* L2 exit reflected to L1.
    new_l2_exits = {
        reason: machine.stack.exit_counts[reason] - before.get(reason, 0)
        for reason in machine.stack.exit_counts
    }
    assert sum(new_l2_exits.values()) >= 4
    assert machine.l1.exit_counts[ExitReason.VMREAD] >= 1 \
        or machine.l1.exit_counts[ExitReason.MSR_WRITE] >= 1


def test_turtles_blowup_msr_vs_cpuid(l3):
    cheap = l3.run_instruction(isa.cpuid())
    expensive = l3.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 10**9))
    # Aux-heavy L3 traps cost several times an aux-free one.
    assert expensive > 3 * cheap


def test_modes_produce_identical_l3_state():
    states = {}
    program = [isa.cpuid(leaf=7), isa.wrmsr(0x200, 99),
               isa.cpuid(leaf=1)]
    for mode in ExecutionMode.ALL:
        stack = install_third_level(Machine(mode=mode))
        for instruction in program:
            stack.run_instruction(instruction)
        vcpu = stack.l3_vm.vcpu
        states[mode] = (
            tuple(vcpu.read(r) for r in ("rax", "rbx", "rcx", "rdx",
                                         "rip")),
            dict(vcpu.msrs),
        )
    assert states[ExecutionMode.BASELINE] == states[ExecutionMode.SW_SVT]
    assert states[ExecutionMode.BASELINE] == states[ExecutionMode.HW_SVT]


def test_hw_svt_accelerates_l3_more_on_aux_heavy_traps():
    times = {}
    for mode in ExecutionMode.ALL:
        stack = install_third_level(Machine(mode=mode))
        times[mode], _ = stack.run_program(
            isa.Program([isa.wrmsr(MSR_TSC_DEADLINE, 10**9)], repeat=4)
        )
    # SW SVt helps (the recursive depth-2 exits ride its channel), HW
    # helps much more; speedup exceeds the flat depth-2 cpuid case.
    assert times[ExecutionMode.HW_SVT] < times[ExecutionMode.SW_SVT] \
        < times[ExecutionMode.BASELINE]
    hw_speedup = times[ExecutionMode.BASELINE] / times[ExecutionMode.HW_SVT]
    assert hw_speedup > 2.2


def test_l3_address_translation_collapses_three_levels(l3):
    gpa = 0x2000
    direct = l3.composed_ept.translate(gpa)
    l2_gpa = l3.l3_vm.ept.translate(gpa)
    hpa = l3.stack.composed_ept.translate(l2_gpa)
    assert direct == hpa


def test_functional_l3_within_analytic_model_band():
    from repro.virt.deep import DeepNestingModel

    # The analytic recursion with the cpuid aux count (0) must bracket
    # the functional aux-free L3 trap.
    flat = DeepNestingModel(aux_per_reflection=0)
    functional = install_third_level(Machine()).run_instruction(
        isa.cpuid()
    ) + 50  # add back guest work charged outside l3_exit
    assert functional == pytest.approx(flat.baseline_exit_ns(2), rel=0.02)
