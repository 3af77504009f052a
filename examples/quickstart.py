#!/usr/bin/env python3
"""Quickstart: the paper's headline microbenchmark in five lines each.

Runs one ``cpuid`` in a nested VM under the three systems the paper
compares (stock nested virtualization, the SW SVt prototype, the SVt
hardware model) and prints the Figure-6 bars plus the Table-1 breakdown.

Usage::

    python examples/quickstart.py
"""

from repro import ExecutionMode, Machine
from repro.analysis.report import format_table, render_result
from repro.cpu import isa
from repro.exp import claims, registry
from repro.workloads import cpuid


def main():
    # --- the one-liner API ------------------------------------------------
    machine = Machine(mode=ExecutionMode.HW_SVT)
    result = machine.run_program(isa.Program([isa.cpuid()], repeat=100))
    print(f"HW SVt nested cpuid: {result.ns_per_instruction / 1000:.2f} us "
          f"({result.exits} exits for {result.instructions} instructions)\n")

    # --- Figure 6: the registered experiment --------------------------
    fig6 = registry.get("fig6")
    print(render_result(fig6.run(fig6.resolve())))
    print()

    # --- Table 1 -----------------------------------------------------------
    rows = cpuid.table1_breakdown(iterations=50)
    print(format_table(
        ["Part", "Time (us)", "Perc. (%)"],
        [(label, f"{us:.2f}", f"{pct:.2f}") for label, us, pct in rows],
        title="Table 1: where a nested cpuid's "
              f"{claims.paper_value('table1', 'total_us'):.2f} us go "
              "(baseline)",
    ))
    total = sum(us for _, us, _ in rows)
    print(f"Total: {total:.2f} us — {100 * (1 - 2.81 / total):.0f}% is "
          "nested-virtualization overhead the paper attacks.")


if __name__ == "__main__":
    main()
