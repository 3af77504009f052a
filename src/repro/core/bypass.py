"""Level bypass and context multiplexing — the paper's §3.1 extensions.

*"SVt could selectively bypass some virtualization levels when
triggering a VM trap to bring performance even closer to systems with
full hardware support for nested virtualization, but an in-depth
discussion of this topic is outside the scope of this paper."*

This module builds that extension: a :class:`BypassSvtEngine` whose
bypass set names exit reasons the hardware delivers *directly* to the L1
context (one stall/resume, no L0 involvement, no vmcs transform), and
the :meth:`NestedStack`-side fast path that uses it.  L0-owned exits
(external interrupts, policy-forced traps) still land in L0, preserving
its control; and because L0 pre-authorised the bypass set when it built
vmcs02, the security argument mirrors the paper's: the hardware only
short-circuits exits L0 *would have reflected verbatim anyway*.

The ``ablation_bypass`` experiment quantifies how close this gets to
"full hardware support" (which would make a nested trap cost the same
as a single-level one).

§3.1 also asks what SVt does with fewer hardware contexts than levels:
:class:`MultiplexedL1Engine` answers it on a two-context core, and the
``ablation_multiplex`` experiment prices it.
"""

from repro.core.switch import HwSvtEngine
from repro.errors import VirtualizationError
from repro.sim.trace import Category
from repro.virt.exits import ExitReason

#: Exits that are safe to deliver straight to L1: deterministic,
#: emulation-only traps whose vmcs12 reflection carries no L0 policy.
DEFAULT_BYPASS_SET = frozenset({
    ExitReason.CPUID,
    ExitReason.HLT,
    ExitReason.MSR_READ,
    ExitReason.MSR_WRITE,
})


class BypassSvtEngine(HwSvtEngine):
    """HW SVt plus direct L2->L1 trap delivery for a bypass set."""

    def __init__(self, sim, tracer, costs, core,
                 bypass_reasons=DEFAULT_BYPASS_SET, obs=None):
        super().__init__(sim, tracer, costs, core, obs=obs)
        self.bypass_reasons = frozenset(bypass_reasons)
        self.bypassed_exits = 0

    def bypasses(self, reason):
        return reason in self.bypass_reasons

    def bypass_to_l1(self):
        """Deliver the trap straight into L1's context: the fetch target
        moves from the L2 context to the L1 context in one stall/resume
        event.  The core stays in guest mode (L1 *is* a guest of L0)."""
        if self.core.svt_nested == -1:
            raise VirtualizationError("bypass without a nested context")
        self.bypassed_exits += 1
        # vmcs01 steering: visor=0, vm=1 — we fetch from the vm context
        # while leaving is_vm set.
        self.core.svt_resume()

    def bypass_return_to_l2(self):
        """L1's VM resume goes straight back to L2 — the hardware
        consumed the resume without trapping to L0 (this is precisely
        what "full hardware support" CPUs do).  The caller has loaded
        vmcs02, so SVt_vm already points at L2's context."""
        self.core.svt_resume()


class MultiplexedL1Engine(HwSvtEngine):
    """HW SVt with only two hardware contexts (paper §3.1).

    L0 and L2 keep their contexts, so the L2<->L0 hot path stays a
    stall/resume.  L1 is multiplexed: it is evicted and reloaded around
    every reflection, paying a memory context switch plus its lazy
    save/restore like the baseline.
    """

    def enter_l1(self, exit_info, vcpu):
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)
        self.core.svt_resume()

    def leave_l1(self, vcpu):
        self.core.svt_trap()
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def charge_l1_lazy(self):
        self._charge(self.costs.l1_lazy_switch, Category.L1_LAZY_SWITCH)

    def aux_exit_begin(self):
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)
        self.core.svt_trap()

    def aux_exit_end(self):
        self.core.svt_resume()
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)


def install_bypass(machine, bypass_reasons=DEFAULT_BYPASS_SET):
    """Retrofit a HW SVt machine with the bypass fast path.

    Replaces the machine's engine and patches the stack's dispatch so
    bypassed reasons skip Algorithm 1's L0 legs entirely.
    """
    from repro.core.mode import ExecutionMode

    if machine.mode != ExecutionMode.HW_SVT:
        raise VirtualizationError("bypass extends HW SVt machines only")

    engine = BypassSvtEngine(machine.sim, machine.tracer, machine.costs,
                             machine.core, bypass_reasons,
                             obs=machine.obs)
    machine.engine = engine
    stack = machine.stack
    stack.engine = engine
    original_l2_exit = stack.l2_exit

    def l2_exit_with_bypass(exit_info):
        if not engine.bypasses(exit_info.reason) \
                or stack._l0_owns(exit_info):
            return original_l2_exit(exit_info)
        vcpu = stack.l2_vm.vcpu
        vcpu.exits += 1
        started = stack.sim.now
        # Hardware writes exit info where L1 reads it (the shadow/vmcs12
        # region L0 designated) and steers fetch to L1's context.
        stack.vmcs12.record_exit(exit_info)
        engine.load_vmcs(stack.vmcs01)
        engine.bypass_to_l1()
        stack.tracer.charge(stack.costs.l1_pure(exit_info.reason),
                            Category.L1_HANDLER)
        writer = engine.l1_writer(vcpu)
        stack.l1.handle_exit(exit_info, stack.l2_vm, vcpu, writer,
                             stack.vmcs01p)
        engine.load_vmcs(stack.vmcs02)
        engine.bypass_return_to_l2()
        elapsed = stack.sim.now - started
        stack.exit_ns[exit_info.reason] += elapsed
        stack.exit_counts[exit_info.reason] += 1
        return elapsed

    stack.l2_exit = l2_exit_with_bypass
    return engine
