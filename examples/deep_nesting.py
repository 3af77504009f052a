#!/usr/bin/env python3
"""Going deeper: a functional third virtualization level.

The paper evaluates two levels; its machinery generalises (§4's
"emulate deeper virtualization hierarchies").  This example boots an L3
guest under L2-as-hypervisor and shows the Turtles effect live: while L2
handles an L3 trap, every privileged operation L2 performs is itself a
full depth-2 nested exit — so aux-heavy traps blow up with depth, and
SVt's advantage *grows*.

Usage::

    python examples/deep_nesting.py
"""

from repro.analysis.report import format_table
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.virt.deep import DeepNestingModel
from repro.virt.hypervisor import MSR_TSC_DEADLINE
from repro.virt.l3 import install_third_level


def measure(mode, instruction, depth):
    if depth == 2:
        machine = Machine(mode=mode)
        machine.run_program(isa.Program([instruction]))
        result = machine.run_program(isa.Program([instruction], repeat=4))
        return result.elapsed_ns / 4 / 1000.0
    stack = install_third_level(Machine(mode=mode))
    elapsed, _ = stack.run_program(isa.Program([instruction], repeat=4))
    return elapsed / 4 / 1000.0


def main():
    print("Booting L0 -> L1 -> L2 -> L3 and trapping from the top...\n")
    rows = []
    for label, instruction in (
        ("cpuid (no aux ops)", isa.cpuid()),
        ("timer write (aux-heavy)", isa.wrmsr(MSR_TSC_DEADLINE, 10**9)),
    ):
        for depth in (2, 3):
            base = measure(ExecutionMode.BASELINE, instruction, depth)
            hw = measure(ExecutionMode.HW_SVT, instruction, depth)
            rows.append((f"{label}, from L{depth}", f"{base:.2f}",
                         f"{hw:.2f}", f"{base / hw:.2f}x"))
    print(format_table(
        ["Trap", "baseline (us)", "HW SVt (us)", "speedup"],
        rows,
        title="Live machinery: depth-2 vs depth-3 traps",
    ))

    print("\nAnalytic recursion to depth 5 (2 aux ops per handler run):")
    model = DeepNestingModel()
    print(format_table(
        ["Trap from", "baseline (us)", "SVt (us)", "speedup"],
        [(f"L{d}", f"{b:.1f}", f"{s:.1f}", f"{x:.2f}x")
         for d, b, s, x in model.table(max_depth=5)],
    ))
    print("\nStock nested virtualization grows geometrically with depth;"
          "\nSVt holds a constant factor while hardware contexts last.")


if __name__ == "__main__":
    main()
