#!/usr/bin/env python3
"""A guided tour of the SVt hardware (paper §4, Table 2, Figure 4).

Builds a bare 3-context SMT core and walks the exact sequence of the
paper's §4 narrative: configuring L1, cross-context register access,
starting L1, steady-state trap/resume, and the nested case with
virtualized context indexes.

Usage::

    python examples/svt_internals.py
"""

from repro.core.cross_context import ctxt_read, ctxt_write, resolve_target
from repro.cpu.costs import CostModel
from repro.cpu.registers import ArchRegisters
from repro.cpu.smt import INVALID_CONTEXT, SmtCore
from repro.errors import CrossContextFault
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


def show(core, step):
    states = ", ".join(
        f"ctx{c.index}:{c.state}" for c in core.contexts
    )
    print(f"  [{step}] current=ctx{core.svt_current} is_vm={int(core.is_vm)}"
          f"  visor={core.svt_visor} vm={core.svt_vm} "
          f"nested={core.svt_nested}  ({states})")


def main():
    sim = Simulator()
    core = SmtCore(sim, CostModel(), Tracer(sim), n_contexts=3)
    print("SVt-enabled SMT core, 3 hardware contexts, shared PRF of "
          f"{core.prf.size} physical registers\n")

    print("Step A/B - L0 configures L1's VMCS and loads it (VMPTRLD "
          "caches the SVt fields into per-core micro-registers):")
    core.load_svt_fields(visor=0, vm=1, nested=INVALID_CONTEXT)
    show(core, "VMPTRLD vmcs01")

    print("\nL0 loads L1's initial state with ctxtst (cross-context "
          "stores through the shared physical register file):")
    l1_state = ArchRegisters({"rip": 0x1000, "rsp": 0x7FFF0000, "cr3": 0x42})
    for name, value in l1_state.as_dict().items():
        ctxt_write(core, 1, name, value)   # host, lvl=1 -> SVt_vm
    print(f"  L1's rip as seen through ctxtld: "
          f"{ctxt_read(core, 1, 'rip'):#x}")

    print("\nStep C - VM resume: stall ctx0, fetch from ctx1 "
          "(no register movement at all):")
    core.svt_resume()
    show(core, "VMRESUME")

    print("\nSteady state - a VM trap switches fetch back to SVt_visor:")
    core.svt_trap()
    show(core, "VM trap")

    print("\nNested case - L0 runs L2 in ctx2 and virtualizes the "
          "context indexes: vmcs01 gets SVt_nested=2 so that L1's "
          "lvl==1 accesses reach L2:")
    core.load_svt_fields(visor=0, vm=1, nested=2)
    core.svt_resume()                      # L1 handling an L2 trap
    show(core, "L1 handling")
    ctxt_write(core, 1, "rax", 0xFEED)     # guest hypervisor, lvl=1
    print(f"  L1 wrote L2's rax via ctxtst lvl=1 -> context "
          f"{resolve_target(core, 1)}; L2 sees rax="
          f"{core.context(2).read('rax'):#x}")

    print("\nIllegal combinations trap for software emulation:")
    try:
        resolve_target(core, 2)            # guest hypervisor, lvl=2
    except CrossContextFault as exc:
        print(f"  guest lvl=2 -> CrossContextFault: {exc}")

    print(f"\nTotal simulated time for all of the above: "
          f"{core.sim.now} ns — versus ~{CostModel().switch_l2_l0} ns for "
          "a single one-way memory context switch in the baseline.")


if __name__ == "__main__":
    main()
