"""Prototype-footprint audit (paper Table 3).

The paper's Table 3 counts the lines its SW SVt prototype added to and
removed from QEMU, Linux/KVM and other kernel code
(:mod:`repro.exp.claims` holds the counts).  The equivalent audit here
counts the modules of this repository that play each codebase's role,
for a scale comparison.
"""

from pathlib import Path

import repro

#: Our modules playing each codebase's role (the paper's rows, in order).
EQUIVALENTS = {
    # ivshmem command rings + device plumbing lived in QEMU.
    "QEMU": ("core/channel.py", "io/device.py"),
    # Exit handling, SVt-thread logic, reflection changes lived in KVM.
    "Linux / KVM": ("core/switch.py", "core/sw_prototype.py",
                    "core/cross_context.py"),
    # Pairing/scheduling hooks lived in generic kernel code.
    "Linux / other": ("core/wait.py",),
}


def loc_of(relative_path):
    """Line count of one module, relative to the repro package root."""
    root = Path(repro.__file__).parent
    with (root / relative_path).open() as handle:
        return sum(1 for _ in handle)


def audit():
    """``{role: total_loc}`` over the equivalence map."""
    return {
        role: sum(loc_of(path) for path in paths)
        for role, paths in EQUIVALENTS.items()
    }
