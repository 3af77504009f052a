"""Level-bypass extension (paper §3.1 future work)."""

import pytest

from repro.core.bypass import (
    BypassSvtEngine,
    DEFAULT_BYPASS_SET,
    install_bypass,
)
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.errors import VirtualizationError
from repro.virt.exits import ExitReason
from repro.virt.hypervisor import cpuid_leaf_values


def bypass_machine(reasons=DEFAULT_BYPASS_SET):
    machine = Machine(mode=ExecutionMode.HW_SVT)
    engine = install_bypass(machine, reasons)
    return machine, engine


def test_requires_hw_svt():
    with pytest.raises(VirtualizationError):
        install_bypass(Machine(mode=ExecutionMode.BASELINE))


def test_bypassed_cpuid_never_touches_l0():
    machine, engine = bypass_machine()
    machine.run_instruction(isa.cpuid(leaf=3))
    assert engine.bypassed_exits == 1
    assert machine.l0.exit_counts[ExitReason.CPUID] == 0
    assert machine.l1.exit_counts[ExitReason.CPUID] == 1


def test_bypass_preserves_architectural_effects():
    machine, _ = bypass_machine()
    machine.run_instruction(isa.cpuid(leaf=9))
    vcpu = machine.l2_vm.vcpu
    assert (vcpu.read("rax"), vcpu.read("rbx"), vcpu.read("rcx"),
            vcpu.read("rdx")) == cpuid_leaf_values(9, 1)


def test_bypass_is_much_faster_than_hw_svt():
    plain = Machine(mode=ExecutionMode.HW_SVT)
    plain.run_program(isa.Program([isa.cpuid()]))
    plain_ns = plain.run_program(
        isa.Program([isa.cpuid()], repeat=10)).ns_per_instruction

    machine, _ = bypass_machine()
    machine.run_program(isa.Program([isa.cpuid()]))
    bypass_ns = machine.run_program(
        isa.Program([isa.cpuid()], repeat=10)).ns_per_instruction
    assert bypass_ns < plain_ns / 3


def test_l0_owned_exits_still_go_to_l0():
    machine, engine = bypass_machine()
    from repro.virt.exits import ExitInfo

    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 0x30}))
    assert machine.l0.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1
    assert engine.bypassed_exits == 0


def test_non_bypassed_reasons_take_full_path():
    machine, engine = bypass_machine(reasons={ExitReason.CPUID})
    from repro.io.block import BlkRequest, install_block

    blk = install_block(machine)
    blk.device.queue_request(BlkRequest(0, 512, False))
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    assert engine.bypassed_exits == 0
    assert machine.l1.exit_counts[ExitReason.EPT_MISCONFIG] == 1


def test_fetch_steering_consistent_after_bypass():
    machine, _ = bypass_machine()
    machine.run_program(isa.Program([isa.cpuid()], repeat=5))
    core = machine.core
    assert core.svt_current == 2     # back in L2's context
    assert core.is_vm
    core.check_single_running()


def test_aux_traps_during_bypassed_handling_reach_l0():
    # A bypassed MSR_WRITE handler arms L1's timer -> a privileged op
    # that must still trap into L0.
    machine, engine = bypass_machine()
    from repro.virt.hypervisor import MSR_TSC_DEADLINE

    machine.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 99_999))
    assert engine.bypassed_exits == 1
    assert machine.stack.aux_exit_counts[ExitReason.MSR_WRITE] == 1


def test_engine_validates_nested_context():
    from repro.cpu.costs import CostModel
    from repro.cpu.smt import INVALID_CONTEXT, SmtCore
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

    sim = Simulator()
    tracer = Tracer(sim)
    core = SmtCore(sim, CostModel(), tracer, n_contexts=3)
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    engine = BypassSvtEngine(sim, tracer, CostModel(), core)
    with pytest.raises(VirtualizationError):
        engine.bypass_to_l1()
