"""VM-exit reasons and exit information records."""

from dataclasses import dataclass, field


class ExitReason:
    """Exit-reason mnemonics (KVM naming where the paper uses it)."""

    CPUID = "CPUID"
    MSR_READ = "MSR_READ"
    MSR_WRITE = "MSR_WRITE"
    IO_INSTRUCTION = "IO_INSTRUCTION"
    EPT_MISCONFIG = "EPT_MISCONFIG"
    EPT_VIOLATION = "EPT_VIOLATION"
    VMCALL = "VMCALL"
    VMPTRLD = "VMPTRLD"
    VMREAD = "VMREAD"
    VMWRITE = "VMWRITE"
    VMRESUME = "VMRESUME"
    INVEPT = "INVEPT"
    RDTSC = "RDTSC"
    EXTERNAL_INTERRUPT = "EXTERNAL_INTERRUPT"
    INTERRUPT_WINDOW = "INTERRUPT_WINDOW"
    HLT = "HLT"
    PREEMPTION_TIMER = "PREEMPTION_TIMER"
    CR_ACCESS = "CR_ACCESS"
    MONITOR = "MONITOR"
    MWAIT = "MWAIT"
    CTXT_ACCESS = "CTXT_ACCESS"      # SVt: invalid ctxtld/ctxtst use
    SVT_BLOCKED = "SVT_BLOCKED"      # SW SVt §5.3 synthetic trap

    ALL = (
        CPUID, MSR_READ, MSR_WRITE, IO_INSTRUCTION, EPT_MISCONFIG,
        EPT_VIOLATION, VMCALL, VMPTRLD, VMREAD, VMWRITE, VMRESUME, INVEPT,
        RDTSC, EXTERNAL_INTERRUPT, INTERRUPT_WINDOW, HLT,
        PREEMPTION_TIMER, CR_ACCESS, MONITOR, MWAIT, CTXT_ACCESS,
        SVT_BLOCKED,
    )
    #: ``ALL`` as a set, for the reason check on every exit.
    KNOWN = frozenset(ALL)

    #: Exits a guest hypervisor (L1) wants reflected to it when its nested
    #: guest (L2) triggers them.  The remaining reasons are consumed by L0
    #: (external interrupts belong to the host; VMX instructions executed
    #: by L2 itself would be reflected, but L2 runs no hypervisor here).
    REFLECTABLE = frozenset({
        CPUID, MSR_READ, MSR_WRITE, IO_INSTRUCTION, EPT_MISCONFIG,
        EPT_VIOLATION, VMCALL, HLT, PREEMPTION_TIMER, CR_ACCESS,
        MONITOR, MWAIT, SVT_BLOCKED,
    })


@dataclass
class ExitInfo:
    """What the hardware records about one VM exit."""

    reason: str
    qualification: dict = field(default_factory=dict)
    guest_rip: int = 0
    instruction_length: int = 2
    injected: bool = False   # True when synthesised by a hypervisor

    def __post_init__(self):
        if self.reason not in ExitReason.KNOWN:
            raise ValueError(f"unknown exit reason {self.reason!r}")

    def qual(self, key, default=None):
        return self.qualification.get(key, default)
