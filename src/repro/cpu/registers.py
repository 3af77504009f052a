"""Architectural register state.

The paper's cost story hinges on "saving and restoring dozens of
registers" per VM trap (§1, §2.3).  We model the x86-64 register set a
hypervisor actually context-switches: 16 GPRs, RIP/RFLAGS, control
registers, segment bases and the MSRs KVM touches on the exit path —
enough that "dozens" is literal here (``RegNames.ALL``, 38 names).
"""

from repro.errors import VirtualizationError


class RegNames:
    """Canonical register name constants."""

    GPRS = (
        "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    )
    RIP = "rip"
    RFLAGS = "rflags"
    CONTROL = ("cr0", "cr2", "cr3", "cr4", "cr8")
    SEGMENT_BASES = ("fs_base", "gs_base", "kernel_gs_base")
    MSRS = (
        "ia32_efer",
        "ia32_star",
        "ia32_lstar",
        "ia32_cstar",
        "ia32_fmask",
        "ia32_sysenter_cs",
        "ia32_sysenter_esp",
        "ia32_sysenter_eip",
        "ia32_tsc_deadline",
        "ia32_spec_ctrl",
        "ia32_pat",
        "ia32_debugctl",
    )

    ALL = GPRS + (RIP, RFLAGS) + CONTROL + SEGMENT_BASES + MSRS
    #: ``ALL`` as a set, for the name check on every access.
    KNOWN = frozenset(ALL)


class ArchRegisters:
    """A flat architectural register file snapshot.

    Values are plain integers.  Unwritten registers read as zero, like a
    freshly reset context.
    """

    __slots__ = ("_values",)

    def __init__(self, initial=None):
        self._values = {}
        if initial:
            for name, value in initial.items():
                self.write(name, value)

    def read(self, name):
        if name not in RegNames.KNOWN:
            raise VirtualizationError(f"unknown register {name!r}")
        return self._values.get(name, 0)

    def write(self, name, value):
        if name not in RegNames.KNOWN:
            raise VirtualizationError(f"unknown register {name!r}")
        if not isinstance(value, int):
            raise VirtualizationError(
                f"register {name} takes integers, got {type(value).__name__}"
            )
        self._values[name] = value & 0xFFFFFFFFFFFFFFFF

    def as_dict(self):
        """Snapshot of the explicitly-written registers."""
        return dict(self._values)

    def __eq__(self, other):
        if not isinstance(other, ArchRegisters):
            return NotImplemented
        return all(
            self.read(name) == other.read(name) for name in RegNames.ALL
        )

    def __repr__(self):
        written = ", ".join(
            f"{k}={v:#x}" for k, v in sorted(self._values.items())
        )
        return f"ArchRegisters({written})"
