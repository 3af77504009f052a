"""SW SVt protocol: pairing hypercall and the §5.3 deadlock."""

from repro.core.mode import ExecutionMode
from repro.core.sw_prototype import (
    DeadlockScenario,
    PairingRegistry,
    SVT_PAIR_HYPERCALL,
    install_pairing_hypercall,
)
from repro.core.system import Machine
from repro.cpu import isa


def test_deadlock_without_fix():
    # The paper's five-step interleaving deadlocks when L0 blindly waits.
    result = DeadlockScenario(with_fix=False).run()
    assert result.completed is False
    assert result.blocked_traps_injected == 0
    messages = [msg for _, msg in result.timeline]
    assert any("waits" in msg for msg in messages)


def test_fix_restores_progress():
    result = DeadlockScenario(with_fix=True).run()
    assert result.completed is True
    assert result.blocked_traps_injected >= 1
    messages = [msg for _, msg in result.timeline]
    assert any("SVT_BLOCKED" in msg for msg in messages)
    assert messages[-1].startswith("SVt-thread sent CMD_VM_RESUME")


def test_fix_costs_latency_but_terminates():
    # §5.3: "at the cost of longer-latency SVt command processing".
    fixed = DeadlockScenario(with_fix=True).run()
    assert fixed.finished_at_ns > DeadlockScenario.HANDLING_NS


def test_undisturbed_handling_time():
    scenario = DeadlockScenario(with_fix=True)
    scenario.PREEMPT_AT_NS = 10 ** 9   # never preempt within the run
    result = scenario.run()
    assert result.completed


def test_pairing_registry():
    registry = PairingRegistry()
    idx = registry.pair({"vcpu_thread": "L2.v0", "svt_thread": "L1.svt0"})
    assert idx == 0
    assert registry.sibling_of("L2.v0") == "L1.svt0"
    assert registry.sibling_of("L1.svt0") == "L2.v0"
    assert registry.sibling_of("other") is None


def test_pairing_hypercall_through_the_stack():
    # §5.2: "L1 then 'pairs' both threads using a hypercall to L0" — the
    # hypercall is an L1-level trap handled by L0.
    machine = Machine(mode=ExecutionMode.SW_SVT)
    registry = install_pairing_hypercall(machine)
    machine.run_instruction(
        isa.vmcall(SVT_PAIR_HYPERCALL,
                   {"vcpu_thread": "L2.vcpu0", "svt_thread": "L1.svt0"}),
        level=1,
    )
    assert len(registry.pairs) == 1
    assert machine.l1_vm.vcpu.read("rax") == 0   # returned pair index
