"""Machine facade: the Fig. 6 anchors and cross-mode equivalence."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.cpu.interrupts import Vectors
from repro.errors import ConfigError, VirtualizationError
from repro.virt.exits import ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE, cpuid_leaf_values


def cpuid_ns(mode=ExecutionMode.BASELINE, level=2, repeat=20):
    machine = Machine(mode=mode)
    result = machine.run_program(isa.Program([isa.cpuid()], repeat=repeat),
                                 level=level)
    return result.ns_per_instruction


def test_fig6_baseline_nested_cpuid_is_10_40_us():
    assert cpuid_ns(ExecutionMode.BASELINE) == pytest.approx(10_400)


def test_fig6_sw_svt_speedup_1_23x():
    speedup = cpuid_ns(ExecutionMode.BASELINE) / cpuid_ns(ExecutionMode.SW_SVT)
    assert speedup == pytest.approx(1.23, abs=0.01)


def test_fig6_hw_svt_speedup_1_94x():
    speedup = cpuid_ns(ExecutionMode.BASELINE) / cpuid_ns(ExecutionMode.HW_SVT)
    assert speedup == pytest.approx(1.94, abs=0.01)


def test_fig6_l0_native_cpuid():
    assert cpuid_ns(level=0) == pytest.approx(50)


def test_fig6_l1_single_level_overhead_between_l0_and_l2():
    l0 = cpuid_ns(level=0)
    l1 = cpuid_ns(level=1)
    l2 = cpuid_ns(level=2)
    assert l0 < l1 < l2
    # Fig. 6's right axis: L2 overhead vs L0 is about 200x.
    assert l2 / l0 == pytest.approx(208, rel=0.02)


def test_modes_produce_identical_architectural_state():
    # SVt must be *transparent* to the end-user VM (paper §3): all three
    # modes compute exactly the same registers.
    programs = [
        isa.cpuid(leaf=3),
        isa.wrmsr(0x123, 77),
        isa.cpuid(leaf=9),
    ]
    states = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        for instruction in programs:
            machine.run_instruction(instruction)
        vcpu = machine.l2_vm.vcpu
        states[mode] = {
            name: vcpu.read(name)
            for name in ("rax", "rbx", "rcx", "rdx", "rip")
        }
    assert states[ExecutionMode.BASELINE] == states[ExecutionMode.SW_SVT]
    assert states[ExecutionMode.BASELINE] == states[ExecutionMode.HW_SVT]


def test_l2_cpuid_is_emulated_by_l1_not_l0():
    machine = Machine()
    machine.run_instruction(isa.cpuid(leaf=5))
    expected = cpuid_leaf_values(5, 1)   # L1's filtering, not L0's
    vcpu = machine.l2_vm.vcpu
    assert (vcpu.read("rax"), vcpu.read("rbx"), vcpu.read("rcx"),
            vcpu.read("rdx")) == expected


def test_rip_advances_once_per_emulated_instruction():
    machine = Machine()
    start = machine.l2_vm.vcpu.rip
    machine.run_program(isa.Program([isa.cpuid()], repeat=3))
    assert machine.l2_vm.vcpu.rip == start + 3 * 2


def test_alu_work_charged_without_exits():
    machine = Machine()
    result = machine.run_program(isa.Program([isa.alu(500)], repeat=4))
    assert result.elapsed_ns == 2_000
    assert result.exits == 0


def test_invalid_level_rejected():
    with pytest.raises(ConfigError):
        Machine().run_program(isa.Program([isa.alu(1)]), level=3)


def test_hw_mode_pins_vcpus_and_redirects_interrupts():
    machine = Machine(mode=ExecutionMode.HW_SVT)
    assert machine.l1_vm.vcpu.is_pinned
    assert machine.l2_vm.vcpu.is_pinned
    machine.interrupts.raise_external(2, Vectors.NET_RX)
    assert machine.interrupts.has_pending(0)      # redirected to L0


def test_pending_interrupt_forces_exit_between_instructions():
    machine = Machine()
    machine.interrupts.raise_external(0, Vectors.NET_RX)
    machine.run_instruction(isa.alu(10))
    assert machine.l0.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1


def test_irq_router_can_consume_interrupts():
    machine = Machine()
    seen = []
    machine.irq_router = lambda m, vector: seen.append(vector) or True
    machine.interrupts.raise_external(0, Vectors.TIMER)
    machine.run_instruction(isa.alu(10))
    assert seen == [Vectors.TIMER]
    assert machine.l0.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 0


def test_timer_fires_through_full_stack():
    machine = Machine()
    machine.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE,
                                      machine.sim.now + 30_000))
    fired = []
    machine.irq_router = lambda m, v: fired.append(v) or True
    machine.elapse(100_000)
    machine.run_instruction(isa.alu(1))
    assert fired == [Vectors.TIMER]


def test_wait_until_services_events():
    machine = Machine()
    done = []
    machine.sim.after(5_000, lambda: machine.post_deferred(
        lambda: done.append(True)
    ))
    machine.wait_until(lambda: done)
    assert machine.sim.now >= 5_000


def test_wait_until_detects_impossible_predicates():
    with pytest.raises(VirtualizationError):
        Machine().wait_until(lambda: False)


def test_deferred_io_drains_before_next_instruction():
    machine = Machine()
    order = []
    machine.post_deferred(lambda: order.append("io"))
    machine.run_instruction(isa.alu(1))
    order.append("instr")
    assert order == ["io", "instr"]


def test_run_result_counts_exits():
    machine = Machine()
    result = machine.run_program(
        isa.Program([isa.cpuid(), isa.alu(10)], repeat=2)
    )
    assert result.instructions == 4
    assert result.exits >= 2


def test_mode_enum_is_frozen():
    """Every mode-indexed document covers exactly the paper's three
    execution modes, in this order."""
    assert ExecutionMode.ALL == (ExecutionMode.BASELINE,
                                 ExecutionMode.SW_SVT,
                                 ExecutionMode.HW_SVT)
