"""Algorithm-1 orchestration: reflection, aux traps, direct handling."""

import collections
import json
import os
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.analysis.breakdown import exit_reason_profile
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.errors import VirtualizationError
from repro.sim.trace import Category
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE
from repro.virt.vmcs import FieldRegistry


@pytest.fixture
def machine():
    return Machine(mode=ExecutionMode.BASELINE)


def test_boot_is_one_shot(machine):
    with pytest.raises(VirtualizationError):
        machine.stack.boot()


def test_boot_builds_the_descriptor_graph(machine):
    stack = machine.stack
    assert stack.vmcs01p is stack.vmcs12        # shadow merge
    assert stack.composed_ept is not None
    # Address-bearing fields in vmcs02 are host-physical.
    assert stack.vmcs02.read("ept_pointer") != stack.vmcs12.read(
        "ept_pointer"
    )


def test_boot_virtualizes_svt_context_indexes(machine):
    # Paper §4: L1 thinks L2 is in context-1; L0 runs it in context-2 and
    # exposes context-2 through vmcs01's SVt_nested.
    stack = machine.stack
    assert stack.vmcs12.read("svt_vm") == 1      # L1's view
    assert stack.vmcs02.read("svt_vm") == 2      # reality
    assert stack.vmcs01.read("svt_nested") == 2


def test_cpuid_exit_walks_full_reflection(machine):
    before = machine.tracer.snapshot()
    machine.run_instruction(isa.cpuid(leaf=2))
    delta = machine.tracer.since(before)
    costs = machine.costs
    assert delta[Category.SWITCH_L2_L0] == costs.switch_l2_l0
    assert delta[Category.SWITCH_L0_L1] == costs.switch_l0_l1
    assert delta[Category.VMCS_TRANSFORM] == costs.vmcs_transform
    assert delta[Category.L0_LAZY_SWITCH] == costs.l0_lazy_switch
    assert delta[Category.L1_LAZY_SWITCH] == costs.l1_lazy_switch
    assert machine.stack.exit_counts[ExitReason.CPUID] == 1


def test_l1_handles_the_reflected_exit_not_l0(machine):
    machine.run_instruction(isa.cpuid())
    assert machine.l1.exit_counts[ExitReason.CPUID] == 1
    assert machine.l0.exit_counts[ExitReason.CPUID] == 0


def test_untrapped_msr_does_not_exit(machine):
    exits_before = machine.l2_vm.vcpu.exits
    machine.run_instruction(isa.wrmsr(0x999, 1))
    assert machine.l2_vm.vcpu.exits == exits_before
    assert machine.l2_vm.vcpu.read_msr(0x999) == 1


def test_tsc_deadline_write_reflects_and_causes_aux_trap(machine):
    # L1 traps its guest's deadline-timer writes; handling one makes L1
    # arm its own timer — itself a trapped MSR write (aux exit).
    machine.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 50_000))
    assert machine.stack.exit_counts[ExitReason.MSR_WRITE] == 1
    assert machine.stack.aux_exit_counts[ExitReason.MSR_WRITE] == 1
    # The physical timer got armed for the guest deadline.
    assert machine.sim.peek_next_time() is not None


def test_external_interrupt_handled_directly_by_l0(machine):
    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 0x30}))
    assert machine.l0.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1
    assert machine.l1.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 0


def test_inject_irq_into_l2_reflects_with_injection_aux(machine):
    machine.stack.inject_irq_into_l2(0x60)
    assert machine.l1.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1
    # The event-injection write trapped (entry_interruption_info).
    assert machine.stack.aux_exit_counts["VMWRITE"] >= 1
    assert machine.stack.vmcs12.read("entry_interruption_info") \
        == 0x80000060


def test_inject_irq_into_l1_uses_single_level_path(machine):
    machine.stack.inject_irq_into_l1(0x61)
    key = "L1:" + ExitReason.EXTERNAL_INTERRUPT
    assert machine.stack.exit_counts[key] == 1


def test_l1_exit_charges_single_level_costs(machine):
    before = machine.tracer.snapshot()
    machine.stack.l1_exit(ExitInfo(ExitReason.CPUID, {"leaf": 0}))
    delta_switch = (machine.tracer.totals[Category.SWITCH_L2_L0]
                    - before.get(Category.SWITCH_L2_L0, 0))
    assert delta_switch == machine.costs.switch_l2_l0
    assert machine.l0.exit_counts[ExitReason.CPUID] == 1


def test_exit_time_accounting(machine):
    elapsed = machine.stack.l2_exit(ExitInfo(ExitReason.CPUID, {"leaf": 0}))
    assert machine.stack.exit_ns[ExitReason.CPUID] == elapsed
    assert elapsed > 0
    assert exit_reason_profile(machine.stack) == {ExitReason.CPUID: 1.0}


def test_vcpu_exit_counter(machine):
    machine.run_instruction(isa.cpuid())
    machine.run_instruction(isa.cpuid())
    assert machine.l2_vm.vcpu.exits == 2


#: Host work of one steady-state nested ``cpuid`` exit, the same in
#: every mode.  Every field it names is registered, so nothing consults
#: the field registry (not even ``record_exit``'s forced writes of the
#: read-only exit fields); a SW SVt ring exchange encodes and checksums
#: nothing.
EXIT_WORK = {"FieldRegistry.get": 0, "json.dumps": 0, "zlib.crc32": 0}


@pytest.mark.parametrize("mode", ExecutionMode.ALL)
def test_nested_cpuid_exit_host_work_is_pinned(monkeypatch, mode):
    machine = Machine(mode=mode)
    machine.run_instruction(isa.cpuid())        # reach steady state
    counts = dict.fromkeys(EXIT_WORK, 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FieldRegistry, "get", staticmethod(
        counted("FieldRegistry.get", FieldRegistry.get)))
    monkeypatch.setattr(json, "dumps", counted("json.dumps", json.dumps))
    monkeypatch.setattr(zlib, "crc32", counted("zlib.crc32", zlib.crc32))
    channels = machine.channels             # SW SVt only
    round_trips = channels.round_trips if channels is not None else 0
    machine.run_instruction(isa.cpuid())
    if channels is not None:
        assert channels.round_trips == round_trips + 1
    drift = [f"{name}: {counts[name]} calls, pinned {pinned}"
             for name, pinned in EXIT_WORK.items()
             if counts[name] != pinned]
    assert not drift, f"one nested cpuid exit ({mode}): " + "; ".join(drift)


#: Python calls into ``src/repro`` code that one steady-state nested
#: ``cpuid`` exit makes, building the instruction included.  List, dict
#: and set comprehensions are left out: Python 3.12 inlines them into
#: the enclosing frame, and 3.9-3.11 call them.
EXIT_CALLS = {
    ExecutionMode.BASELINE: 87,
    ExecutionMode.SW_SVT: 138,
    ExecutionMode.HW_SVT: 159,
}
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


@pytest.mark.parametrize("mode", ExecutionMode.ALL)
def test_nested_cpuid_exit_python_calls_are_pinned(mode):
    machine = Machine(mode=mode)
    machine.run_instruction(isa.cpuid())        # reach steady state
    package = str(Path(repro.__file__).parent) + os.sep
    calls = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(package)
                and code.co_name not in _INLINED):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        machine.run_instruction(isa.cpuid())
    finally:
        sys.setprofile(None)
    assert sum(calls.values()) == EXIT_CALLS[mode], (
        f"one nested cpuid exit ({mode}) made "
        f"{sum(calls.values())} calls, pinned {EXIT_CALLS[mode]}: "
        f"{calls.most_common()}")
