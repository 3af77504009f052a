"""A functional third virtualization level (L3).

Paper §4: unsupported ctxtld/ctxtst combinations "produce a trap into
the hypervisor, which can then emulate deeper virtualization
hierarchies" — and §3.1 describes multiplexing levels past the core's
SMT width.  This module realises that escape hatch on the live
machinery: an L3 guest runs under L2-as-hypervisor, which is itself the
nested guest of the existing L0/L1 stack.

The load-bearing property (the Turtles blowup): while L2 handles an L3
trap, *every privileged operation L2 performs is itself a full
depth-2 nested exit* — its VMREAD/VMWRITEs on vmcs23' reflect through
L0 to L1, exactly as the analytic model in `repro.virt.deep` assumes.
`tests/virt/test_l3.py` cross-checks the two.

Mode handling: the L3↔L0 and L0↔L2-handler crossings are priced per the
machine's engine class (memory switches for baseline/SW SVt — the SW
prototype only accelerates L0↔L1 — stall/resume for HW SVt, which would
hold L3 in a fourth hardware context); L2's recursive aux exits go
through the untouched :class:`~repro.virt.nested.NestedStack`, so they
get each mode's full treatment automatically.
"""

from collections import Counter

from repro.core.mode import ExecutionMode
from repro.cpu.smt import INVALID_CONTEXT
from repro.errors import VirtualizationError
from repro.sim.trace import Category
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import Hypervisor
from repro.virt.transform import transform_02_to_12, transform_12_to_02
from repro.virt.vm import VirtualMachine
from repro.virt.vmcs import Vmcs


class ThirdLevelStack:
    """L3 orchestration layered over a booted 2-level machine."""

    def __init__(self, machine, ram_mb=8):
        self.machine = machine
        self.stack = machine.stack
        self.costs = machine.costs
        self.tracer = machine.tracer
        self.engine = machine.engine

        #: L2's own hypervisor persona (it was a plain guest until now).
        self.l2_hypervisor = Hypervisor("L2", 2)
        self.l2_hypervisor.arm_timer = self._l2_arm_timer

        # L3's RAM lives inside L2's guest-physical space (8..16 MB of
        # L2's 32 MB window).
        self.l3_vm = VirtualMachine(
            "L3-vm", 3, ram_mb=ram_mb, n_vcpus=1,
            ram_target_base=8 * 1024 * 1024,
        )
        self.l3_vm.backing_pool_base = 24 * 1024 * 1024  # L2 free space

        # Descriptor graph, one level up from Fig. 2: vmcs23' is L2's
        # descriptor for L3; vmcs13 is the shadow the level below keeps;
        # vmcs03 is what L0 really runs L3 on.  As in NestedStack, the
        # shadow pair is one object with two access styles.
        self.vmcs13 = Vmcs("vmcs13",
                           exit_on_write_callback=self._l2_vmcs_trap)
        self.vmcs23p = self.vmcs13
        self.vmcs03 = Vmcs("vmcs03")

        #: Table mapping L2-guest-physical to host-physical: the already
        #: collapsed two-level table of the inner stack.
        self.ept02 = self.stack.composed_ept
        self.ept23 = self.l3_vm.ept
        self.composed_ept = None

        self.exit_counts = Counter()
        self.exit_ns = Counter()
        self.booted = False

    # ------------------------------------------------------------------

    def boot(self):
        if self.booted:
            raise VirtualizationError("third level already booted")
        # L2 configures vmcs23' (its first VMPTRLD and field writes each
        # trap through the full depth-2 machinery — the expensive
        # bring-up the Turtles paper describes).
        self._l2_aux(ExitReason.VMPTRLD)
        self.vmcs13.write("guest_rip", 0x1000)
        self.vmcs13.write("guest_cr3", 0x3000)
        self.vmcs13.write("ept_pointer", 0x6000)
        self.vmcs13.write("svt_visor", 0)
        self.vmcs13.write("svt_vm", 1)
        self.vmcs13.write("svt_nested", INVALID_CONTEXT)
        # L0 collapses the three-level translation and builds vmcs03.
        self.composed_ept = self.ept23.compose(self.ept02)
        transform_12_to_02(self.vmcs13, self.vmcs03, self.ept02,
                           self.stack.l0.policy,
                           composed_ept=self.composed_ept)
        self.booted = True

    # ------------------------------------------------------------------

    def l3_exit(self, exit_info):
        """One VM trap from L3: reflected to L2-as-hypervisor, whose own
        privileged ops recurse through the depth-2 stack."""
        if not self.booted:
            raise VirtualizationError("boot() the third level first")
        vcpu = self.l3_vm.vcpu
        vcpu.exits += 1
        started = self.machine.sim.now

        self.vmcs03.record_exit(exit_info)
        # L3 -> L0: the generic guest trap.
        self.engine.exit_l2_to_l0()
        self.engine.charge_l0_lazy_nested()
        self.tracer.charge(self.costs.vmcs_transform_each,
                           Category.VMCS_TRANSFORM)
        transform_02_to_12(self.vmcs03, self.vmcs13, self.ept02)
        self.tracer.charge(self.costs.l0_pure(exit_info.reason),
                           Category.L0_HANDLER)
        self.vmcs13.record_exit(exit_info)

        # L0 -> L2-as-handler (entering a *nested* guest).
        self._enter_l2_handler()
        self.tracer.charge(self.costs.l1_pure(exit_info.reason),
                           Category.L1_HANDLER)
        self.l2_hypervisor.handle_exit(
            exit_info, self.l3_vm, vcpu, vcpu.write, self.vmcs23p
        )
        self._leave_l2_handler()

        self.tracer.charge(self.costs.vmcs_transform_each,
                           Category.VMCS_TRANSFORM)
        transform_12_to_02(self.vmcs13, self.vmcs03, self.ept02,
                           self.stack.l0.policy,
                           composed_ept=self.composed_ept)
        self.engine.resume_l2()

        elapsed = self.machine.sim.now - started
        self.exit_counts[exit_info.reason] += 1
        self.exit_ns[exit_info.reason] += elapsed
        return elapsed

    def run_instruction(self, instruction):
        """Execute one L3 instruction (classify + trap as needed)."""
        from repro.cpu.isa import Op

        kind = instruction.kind
        if instruction.work_ns:
            self.tracer.charge(instruction.work_ns, Category.GUEST_WORK)
        if kind == Op.ALU:
            return None
        if kind == Op.CPUID:
            self.tracer.charge(self.costs.cpuid_guest_work,
                               Category.GUEST_WORK)
            return self.l3_exit(ExitInfo(
                ExitReason.CPUID, dict(instruction.operands),
                guest_rip=self.l3_vm.vcpu.rip,
            ))
        if kind in (Op.RDMSR, Op.WRMSR):
            reason = (ExitReason.MSR_READ if kind == Op.RDMSR
                      else ExitReason.MSR_WRITE)
            return self.l3_exit(ExitInfo(
                reason, dict(instruction.operands),
                guest_rip=self.l3_vm.vcpu.rip,
            ))
        if kind == Op.HLT:
            return self.l3_exit(ExitInfo(
                ExitReason.HLT, guest_rip=self.l3_vm.vcpu.rip,
            ))
        raise VirtualizationError(
            f"L3 model does not classify {kind!r}"
        )

    def run_program(self, program):
        started = self.machine.sim.now
        count = 0
        for instruction in program:
            self.run_instruction(instruction)
            self.l3_vm.vcpu.halted = False
            count += 1
        return (self.machine.sim.now - started), count

    # ------------------------------------------------------------------
    # L2's privileged operations: full depth-2 nested exits
    # ------------------------------------------------------------------

    def _l2_vmcs_trap(self, kind, field_name):
        """L2 touched a non-shadowed vmcs23' field: that VMREAD/VMWRITE
        is a trap of the *L2 guest*, reflected through L0 to L1 — the
        Turtles recursion, on the real machinery."""
        self._l2_aux(kind, field=field_name)

    def _l2_aux(self, reason, field=None):
        qualification = {"owner": "l1", "shadow_vmcs": self.vmcs13}
        if field is not None:
            qualification["field"] = field
        self.stack.l2_exit(ExitInfo(
            reason, qualification,
            guest_rip=self.machine.l2_vm.vcpu.rip,
        ))

    def _l2_arm_timer(self, vcpu, deadline_value):
        """L2 arming its virtual timer for L3 is a privileged MSR write:
        a full depth-2 exit."""
        self._l2_aux(ExitReason.MSR_WRITE)

    # ------------------------------------------------------------------
    # L0 <-> L2-as-handler crossings
    # ------------------------------------------------------------------

    def _enter_l2_handler(self):
        if self.engine.mode == ExecutionMode.HW_SVT:
            # A fourth hardware context would hold L3; entering the L2
            # handler is a thread resume.
            self.tracer.charge(self.costs.svt_stall_resume,
                               Category.STALL_RESUME)
        else:
            # Stock nested entry (the SW prototype accelerates only the
            # L0<->L1 reflection, paper §5.2).
            self.tracer.charge(self.costs.switch_l0_l1_each,
                               Category.SWITCH_L0_L1)
            self.tracer.charge(self.costs.l1_lazy_switch,
                               Category.L1_LAZY_SWITCH)

    def _leave_l2_handler(self):
        if self.engine.mode == ExecutionMode.HW_SVT:
            self.tracer.charge(self.costs.svt_stall_resume,
                               Category.STALL_RESUME)
        else:
            self.tracer.charge(self.costs.switch_l0_l1_each,
                               Category.SWITCH_L0_L1)


def install_third_level(machine, ram_mb=8):
    """Build and boot an L3 on top of a machine; returns the stack."""
    stack = ThirdLevelStack(machine, ram_mb=ram_mb)
    stack.boot()
    return stack
