"""Switch engines: per-mode crossing costs and mechanics."""

import pytest

from repro.core.channel import PairedChannels
from repro.core.mode import ExecutionMode
from repro.core.switch import (
    HwSvtEngine,
    SwitchEngine,
    SwSvtEngine,
    make_engine,
)
from repro.cpu.costs import CostModel
from repro.cpu.smt import SmtCore
from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.trace import Category, Tracer
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.vcpu import VCpu


def build(mode):
    sim, costs = Simulator(), CostModel()
    tracer = Tracer(sim)
    core = SmtCore(sim, costs, tracer, n_contexts=3)
    channels = PairedChannels("t.vcpu0")
    engine = make_engine(mode, sim, tracer, costs, core=core,
                         channels=channels)
    return engine, sim, tracer, costs, core, channels


def test_factory_validates():
    sim, costs = Simulator(), CostModel()
    tracer = Tracer(sim)
    with pytest.raises(ConfigError):
        make_engine("quantum", sim, tracer, costs)
    with pytest.raises(ConfigError):
        make_engine(ExecutionMode.SW_SVT, sim, tracer, costs)  # no channels
    with pytest.raises(ConfigError):
        make_engine(ExecutionMode.HW_SVT, sim, tracer, costs)  # no core


def test_factory_types():
    assert type(build(ExecutionMode.BASELINE)[0]) is SwitchEngine
    assert isinstance(build(ExecutionMode.SW_SVT)[0], SwSvtEngine)
    assert isinstance(build(ExecutionMode.HW_SVT)[0], HwSvtEngine)


def test_baseline_round_trip_costs_match_table1():
    engine, sim, tracer, costs, _, _ = build(ExecutionMode.BASELINE)
    vcpu = VCpu("v", 2)
    engine.exit_l2_to_l0()
    engine.enter_l1(ExitInfo(ExitReason.CPUID), vcpu)
    engine.leave_l1(vcpu)
    engine.resume_l2()
    assert tracer.totals[Category.SWITCH_L2_L0] == costs.switch_l2_l0
    assert tracer.totals[Category.SWITCH_L0_L1] == costs.switch_l0_l1


def test_baseline_lazy_charges():
    engine, sim, tracer, costs, _, _ = build(ExecutionMode.BASELINE)
    engine.charge_l0_lazy_nested()
    engine.charge_l1_lazy()
    assert tracer.totals[Category.L0_LAZY_SWITCH] == costs.l0_lazy_switch
    assert tracer.totals[Category.L1_LAZY_SWITCH] == costs.l1_lazy_switch


def test_sw_svt_reflection_uses_channel_not_switch():
    engine, sim, tracer, costs, _, channels = build(ExecutionMode.SW_SVT)
    vcpu = VCpu("v", 2)
    vcpu.write("rax", 7)
    engine.enter_l1(ExitInfo(ExitReason.CPUID, {"leaf": 1}), vcpu)
    engine.leave_l1(vcpu)
    assert tracer.totals[Category.CHANNEL] == 2 * costs.channel_one_way()
    assert tracer.totals.get(Category.SWITCH_L0_L1, 0) == 0
    assert channels.round_trips == 1


def test_sw_svt_trap_payload_carries_registers():
    engine, sim, tracer, costs, _, channels = build(ExecutionMode.SW_SVT)
    vcpu = VCpu("v", 2)
    vcpu.write("rbx", 0x1234)
    sent = {}
    original_push = channels.request.push

    def spy(command, now=0):
        sent.update(command.payload)
        return original_push(command, now)

    channels.request.push = spy
    engine.enter_l1(ExitInfo(ExitReason.CPUID, {"leaf": 1}), vcpu)
    engine.leave_l1(vcpu)
    assert sent["exit_reason"] == ExitReason.CPUID
    assert sent["regs"]["rbx"] == 0x1234


def test_sw_svt_l1_writes_ride_the_resume_payload():
    engine, sim, tracer, costs, _, channels = build(ExecutionMode.SW_SVT)
    vcpu = VCpu("v", 2)
    engine.enter_l1(ExitInfo(ExitReason.CPUID), vcpu)
    writer = engine.l1_writer(vcpu)
    writer("rax", 99)
    assert vcpu.read("rax") == 0      # not applied yet: buffered
    engine.leave_l1(vcpu)
    assert vcpu.read("rax") == 99     # applied by L0 on CMD_VM_RESUME


def test_sw_svt_l1_write_outside_window_rejected():
    engine, *_ = build(ExecutionMode.SW_SVT)
    writer = engine.l1_writer(VCpu("v", 2))
    with pytest.raises(ConfigError):
        writer("rax", 1)


def test_sw_svt_l1_lazy_is_free():
    engine, sim, tracer, costs, _, _ = build(ExecutionMode.SW_SVT)
    engine.charge_l1_lazy()
    assert tracer.totals.get(Category.L1_LAZY_SWITCH, 0) == 0


def test_sw_svt_aux_propagation_only_for_consistency_ops():
    engine, sim, tracer, costs, _, _ = build(ExecutionMode.SW_SVT)
    engine.propagate_aux("VMREAD")
    assert tracer.totals.get(Category.CHANNEL, 0) == 0
    engine.propagate_aux("INVEPT")
    assert tracer.totals[Category.CHANNEL] == 2 * costs.channel_one_way()


def test_hw_svt_crossing_is_stall_resume():
    engine, sim, tracer, costs, core, _ = build(ExecutionMode.HW_SVT)
    vcpu = VCpu("v", 2)

    class FakeVmcs:
        def read(self, name):
            return {"svt_visor": 0, "svt_vm": 1, "svt_nested": 2}[name]

    engine.load_vmcs(FakeVmcs())
    engine.enter_l1(ExitInfo(ExitReason.CPUID), vcpu)
    assert core.svt_current == 1
    assert core.is_vm
    engine.leave_l1(vcpu)
    assert core.svt_current == 0
    assert not core.is_vm
    assert tracer.totals[Category.STALL_RESUME] == 2 * costs.svt_stall_resume
    assert tracer.totals.get(Category.SWITCH_L0_L1, 0) == 0


def test_hw_svt_lazy_charges_vanish():
    engine, sim, tracer, *_ = build(ExecutionMode.HW_SVT)
    engine.charge_l0_lazy_nested()
    engine.charge_l0_lazy_direct()
    engine.charge_l1_lazy()
    engine.charge_l0_single_lazy()
    assert tracer.totals.get(Category.L0_LAZY_SWITCH, 0) == 0
    assert tracer.totals.get(Category.L1_LAZY_SWITCH, 0) == 0


def test_hw_svt_writer_uses_cross_context_stores():
    engine, sim, tracer, costs, core, _ = build(ExecutionMode.HW_SVT)
    core.load_svt_fields(0, 1, 2)
    core.is_vm = True                       # L1 handler running
    vcpu = VCpu("v", 2)
    vcpu.bind_context(core.context(2))
    writer = engine.l1_writer(vcpu)
    writer("rax", 0x77)
    assert core.context(2).read("rax") == 0x77
    assert tracer.totals[Category.CROSS_CONTEXT] == costs.ctxt_access
