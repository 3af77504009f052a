"""KVM-like trap-and-emulate hypervisor.

One class serves both roles of the paper's stack: instantiated at level 0
it is the *host* hypervisor (L0); instantiated at level 1 it is the
*guest* hypervisor (L1), unaware of being virtualized.  The class holds
only **emulation logic** — what a VM trap means and how to complete the
trapped instruction.  *Where* the handler runs, what switching to it
costs, and how guest registers are reached are all mode concerns, injected
by the orchestration layer (`repro.virt.nested` + `repro.core.switch`):

* ``writer`` — a callable ``(register, value)`` for updating the guest's
  registers: plain memory writes in the baseline, ``ctxtst`` cross-context
  stores under HW SVt, command-ring payload entries under SW SVt.
* ``vmcs`` — the descriptor the handler consults.  For L1 this is its own
  vmcs01', whose non-shadowed accesses trap back into L0 (Alg. 1
  lines 8-10) via the VMCS trap callback.
"""

from collections import Counter

from repro.cpu.registers import RegNames
from repro.errors import VirtualizationError
from repro.virt.exits import ExitReason
from repro.virt.transform import L0Policy

#: MSR numbers the handlers special-case.
MSR_TSC_DEADLINE = 0x6E0
MSR_SPEC_CTRL = 0x48
MSR_APIC_EOI = 0x80B


def cpuid_leaf_values(leaf, level):
    """Deterministic CPUID emulation.

    The hypervisor at each level filters the leaf (e.g. hides VMX from its
    guests), so the returned values depend on the virtualization level —
    and the mode-equivalence tests assert every execution mode computes
    exactly these values into the guest's registers.
    """
    base = (leaf * 0x01000193) & 0xFFFFFFFF
    eax = base ^ 0x756E6547            # "Genu"
    ebx = (base + level) ^ 0x49656E69  # "ineI"
    ecx = (base * 3 + level) & 0xFFFFFFFF
    # Level > 0 masks the VMX feature bit (bit 5 of edx here).
    edx = ((base >> 3) | 0x20) & 0xFFFFFFFF
    if level > 0:
        edx &= ~0x20
    return eax, ebx, ecx, edx


class Hypervisor:
    """Trap-and-emulate hypervisor for one virtualization level."""

    def __init__(self, name, level):
        self.name = name
        self.level = level
        self.guests = []          # VirtualMachine instances this one runs
        self.policy = L0Policy()
        # Observability sink; attached by the stack when enabled.
        self.obs = None
        self.hypercalls = {}      # number -> callable(payload) -> value
        self.exit_counts = Counter()
        # Timer plumbing: set by the machine so WRMSR(TSC_DEADLINE) can
        # arm a timer appropriate for this level.
        self.arm_timer = None     # callable(vcpu, deadline_value)
        # EPT-flush plumbing: set by the stack so a guest hypervisor's
        # INVEPT after a page-table update traps (and lets L0 refresh
        # its collapsed tables).
        self.flush_ept = None     # callable(vm)
        # Demand-paging bump allocator, per guest VM.
        self._backing_offsets = {}

    def add_guest(self, vm):
        self.guests.append(vm)

    def register_hypercall(self, number, fn):
        if number in self.hypercalls:
            raise VirtualizationError(f"hypercall {number} already bound")
        self.hypercalls[number] = fn

    # ------------------------------------------------------------------
    # Emulation handlers.  Each receives the trapped guest's vCPU, the
    # exit info, a register ``writer`` and the VMCS used for the exit,
    # completes the instruction and advances RIP through the VMCS (the
    # canonical "increase the instruction pointer after emulating" step).
    # ------------------------------------------------------------------

    #: Non-shadowed VMCS fields each handler touches while running as a
    #: *guest* hypervisor.  Paper §2.3: the cpuid case "shows a best-case
    #: scenario, since L1 handlers for other types of traps trigger many
    #: more traps into L0" — device emulation and interrupt handling walk
    #: control state that hardware shadowing cannot serve.
    AUX_TOUCH = {
        ExitReason.EPT_MISCONFIG: (
            "ept_pointer", "proc_based_controls", "secondary_controls",
            "msr_bitmap_addr", "virtual_apic_addr", "exception_bitmap",
            "tsc_offset", "vmcs_link_pointer",
        ),
        ExitReason.EXTERNAL_INTERRUPT: (
            "pin_based_controls", "virtual_apic_addr", "entry_controls",
        ),
        ExitReason.MSR_WRITE: (
            "msr_bitmap_addr", "virtual_apic_addr", "tsc_offset",
        ),
        ExitReason.HLT: (
            "pin_based_controls", "entry_controls", "virtual_apic_addr",
            "tsc_offset",
        ),
        ExitReason.IO_INSTRUCTION: (
            "io_bitmap_addr", "proc_based_controls", "exception_bitmap",
        ),
    }

    def handle_exit(self, exit_info, vm, vcpu, writer, vmcs):
        """Dispatch one VM exit to its emulation handler."""
        self.exit_counts[exit_info.reason] += 1
        handler = self._DISPATCH.get(exit_info.reason)
        if handler is None:
            raise VirtualizationError(
                f"{self.name}: unhandled exit reason {exit_info.reason}"
            )
        if self.obs is not None:
            self.obs.count("handler_dispatch_total", hypervisor=self.name,
                           reason=exit_info.reason)
        if self.level >= 1:
            for field_name in self.AUX_TOUCH.get(exit_info.reason, ()):
                vmcs.guest_read(field_name)
        return handler(self, exit_info, vm, vcpu, writer, vmcs)

    def _advance_rip(self, exit_info, vcpu, writer, vmcs):
        new_rip = vcpu.read(RegNames.RIP) + exit_info.instruction_length
        writer(RegNames.RIP, new_rip)
        vmcs.guest_write("guest_rip", new_rip)

    # -- CPUID -----------------------------------------------------------

    def _handle_cpuid(self, exit_info, vm, vcpu, writer, vmcs):
        # Handlers consult the exit-information area first; these fields
        # are shadow-readable, so no nested trap is triggered here.
        vmcs.guest_read("exit_reason")
        vmcs.guest_read("exit_qualification")
        leaf = exit_info.qual("leaf", 0)
        eax, ebx, ecx, edx = cpuid_leaf_values(leaf, self.level)
        writer("rax", eax)
        writer("rbx", ebx)
        writer("rcx", ecx)
        writer("rdx", edx)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    # -- MSRs --------------------------------------------------------------

    def _handle_msr_read(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        msr = exit_info.qual("msr")
        value = vcpu.read_msr(msr)
        writer("rax", value & 0xFFFFFFFF)
        writer("rdx", (value >> 32) & 0xFFFFFFFF)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_msr_write(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        vmcs.guest_read("exit_qualification")
        msr = exit_info.qual("msr")
        value = exit_info.qual("value", 0)
        vcpu.write_msr(msr, value)
        if msr == MSR_TSC_DEADLINE and self.arm_timer is not None:
            # Arming the guest's virtual deadline timer.  For L1 this
            # itself performs a privileged timer write that traps to L0
            # (the paper's MSR_WRITE profile, §6.3.1/§6.3.3).
            self.arm_timer(vcpu, value)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_rdtsc(self, exit_info, vm, vcpu, writer, vmcs):
        """Virtualized timestamp-counter read (paper §2.1: L0 traps TSC
        accesses "to implement VM scheduling and migration")."""
        vmcs.guest_read("exit_reason")
        value = exit_info.qual("tsc", 0) + vmcs.read("tsc_offset")
        writer("rax", value & 0xFFFFFFFF)
        writer("rdx", (value >> 32) & 0xFFFFFFFF)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    # -- I/O ------------------------------------------------------------------

    def _handle_io(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        vmcs.guest_read("exit_qualification")
        port = exit_info.qual("port")
        device = vm.io_ports.get(port)
        if device is None:
            raise VirtualizationError(
                f"{self.name}: no device at port {port:#x} of {vm.name}"
            )
        if exit_info.qual("write", True):
            device.port_write(port, exit_info.qual("value", 0))
        else:
            writer("rax", device.port_read(port))
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_ept_violation(self, exit_info, vm, vcpu, writer, vmcs):
        """Demand paging: the guest touched a guest-physical page its
        EPT does not map yet.  The hypervisor backs it (here: extends
        the RAM mapping by one page) and updates the EPT — an operation
        that, when this hypervisor is itself a guest, traps to *its*
        hypervisor (the paper's "manipulating the extended page tables"
        aux-exit class)."""
        vmcs.guest_read("exit_reason")
        vmcs.guest_read("guest_physical_address")
        gpa = exit_info.qual("gpa")
        page = gpa & ~0xFFF
        # Back the page from this hypervisor's free-memory pool (its own
        # guest-physical space when it is L1, host-physical when L0).
        pool = getattr(vm, "backing_pool_base", None) or 0x50_0000_0000
        offset = self._backing_offsets.get(vm.name, 0)
        vm.ept.map_range(page, 0x1000, pool + offset)
        self._backing_offsets[vm.name] = offset + 0x1000
        # Installing the mapping touches the EPT structures: a
        # non-shadowed VMCS field write plus an INVEPT when running
        # virtualized.
        vmcs.guest_write("ept_pointer", vmcs.read("ept_pointer"))
        vm.ept.invalidate()
        if self.flush_ept is not None:
            self.flush_ept(vm)
        # No RIP advance: the faulting instruction re-executes.

    def _handle_ept_misconfig(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        vmcs.guest_read("guest_physical_address")
        gpa = exit_info.qual("gpa")
        device = vm.device_at(gpa)
        if device is None:
            raise VirtualizationError(
                f"{self.name}: EPT misconfig at {gpa:#x} hits no device"
            )
        if exit_info.qual("write", True):
            device.mmio_write(gpa, exit_info.qual("value", 0))
        else:
            writer("rax", device.mmio_read(gpa))
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    # -- VMX instruction emulation (a guest running its own hypervisor) --

    def _handle_vmread(self, exit_info, vm, vcpu, writer, vmcs):
        """The guest executed VMREAD: this hypervisor emulates its
        virtualization hardware by serving the field from the shadow
        area it keeps for the guest (paper Fig. 2's shadowing)."""
        vmcs.guest_read("exit_reason")
        field_name = exit_info.qual("field", "guest_rip")
        shadow = exit_info.qual("shadow_vmcs")
        value = shadow.read(field_name) if shadow is not None else 0
        writer("rax", value if isinstance(value, int) else 0)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_vmwrite(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        field_name = exit_info.qual("field", "guest_rip")
        shadow = exit_info.qual("shadow_vmcs")
        if shadow is not None:
            shadow.write(field_name, exit_info.qual("value", 0),
                         force=True)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_vmptrld(self, exit_info, vm, vcpu, writer, vmcs):
        """The guest loaded a VMCS of its own: begin shadowing it
        (paper Fig. 2 step 1 — here performed by whichever level plays
        the supervising hypervisor)."""
        vmcs.guest_read("exit_reason")
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_invept(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        vm.ept.invalidate()
        if self.flush_ept is not None:
            self.flush_ept(vm)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    # -- hypercalls ---------------------------------------------------------

    def _handle_vmcall(self, exit_info, vm, vcpu, writer, vmcs):
        number = exit_info.qual("number", 0)
        fn = self.hypercalls.get(number)
        if fn is None:
            writer("rax", 0xFFFFFFFFFFFFFFFF)  # -ENOSYS flavour
        else:
            result = fn(exit_info.qual("payload", {}))
            writer("rax", int(result) & 0xFFFFFFFFFFFFFFFF if result
                   is not None else 0)
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    # -- idle / events ------------------------------------------------------

    def _handle_hlt(self, exit_info, vm, vcpu, writer, vmcs):
        vcpu.halted = True
        self._advance_rip(exit_info, vcpu, writer, vmcs)

    def _handle_external_interrupt(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")
        vector = exit_info.qual("inject_vector")
        if vector is not None and self.level >= 1:
            # L1's backend raising a virtual interrupt for L2: writing
            # the event-injection field is a non-shadowed control access,
            # so it traps into L0 (one of the §2.3 "L1 exits during
            # VM-exit handling").
            vmcs.guest_write("entry_interruption_info",
                             0x80000000 | int(vector))

    def _handle_preemption_timer(self, exit_info, vm, vcpu, writer, vmcs):
        vmcs.guest_read("exit_reason")

    def _handle_svt_blocked(self, exit_info, vm, vcpu, writer, vmcs):
        # SW SVt §5.3: a synthetic trap that lets the L1 vCPU take a
        # pending interrupt and immediately yield back; no guest-visible
        # state changes and no RIP advance (it is not an instruction).
        vmcs.guest_read("exit_reason")

    _DISPATCH = {
        ExitReason.CPUID: _handle_cpuid,
        ExitReason.MSR_READ: _handle_msr_read,
        ExitReason.MSR_WRITE: _handle_msr_write,
        ExitReason.IO_INSTRUCTION: _handle_io,
        ExitReason.RDTSC: _handle_rdtsc,
        ExitReason.EPT_MISCONFIG: _handle_ept_misconfig,
        ExitReason.EPT_VIOLATION: _handle_ept_violation,
        ExitReason.VMCALL: _handle_vmcall,
        ExitReason.VMREAD: _handle_vmread,
        ExitReason.VMWRITE: _handle_vmwrite,
        ExitReason.VMPTRLD: _handle_vmptrld,
        ExitReason.INVEPT: _handle_invept,
        ExitReason.HLT: _handle_hlt,
        ExitReason.EXTERNAL_INTERRUPT: _handle_external_interrupt,
        ExitReason.PREEMPTION_TIMER: _handle_preemption_timer,
        ExitReason.SVT_BLOCKED: _handle_svt_blocked,
    }

    def __repr__(self):
        return f"Hypervisor({self.name!r}, L{self.level})"
