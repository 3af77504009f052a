"""The cpuid microbenchmark (paper Table 1 and Figure 6).

Paper §6.1: *"a loop with the operation under scrutiny, surrounded by a
series of dependant register increments that simulate a variable
workload"*.  The simulator is deterministic, so one warmed-up pass
stands in for the paper's repeat-until-stable loop.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.obs.export import TABLE1_FOLD

@dataclass(frozen=True)
class CpuidResult:
    mode: str
    level: int
    ns_per_op: float
    iterations: int

    @property
    def us_per_op(self):
        return self.ns_per_op / 1000.0


def run(mode=ExecutionMode.BASELINE, level=2, iterations=50,
        surrounding_work_ns=0, costs=None):
    """Measure one cpuid (plus optional surrounding register work) at a
    virtualization level, in a given mode."""
    machine = Machine(mode=mode, costs=costs)
    body = []
    if surrounding_work_ns:
        body.append(isa.alu(surrounding_work_ns))
    body.append(isa.cpuid())
    # Warm up one iteration (the first HW SVt resume differs slightly).
    machine.run_program(isa.Program(body, repeat=1), level=level)
    result = machine.run_program(isa.Program(body, repeat=iterations),
                                 level=level)
    return CpuidResult(
        mode=mode,
        level=level,
        ns_per_op=result.ns_per_instruction * len(body),
        iterations=iterations,
    )


def table1_breakdown(costs=None, iterations=50):
    """Reproduce Table 1: per-part time for one nested cpuid, baseline.

    Returns ``[(part_label, us, percent)]`` in the paper's row order.
    The hidden lazy save/restore shares are folded into the L0/L1 handler
    rows exactly as the paper folds them (:data:`TABLE1_FOLD`).
    """
    machine = Machine(mode=ExecutionMode.BASELINE, costs=costs)
    machine.run_program(isa.Program([isa.cpuid()], repeat=1))
    before = machine.tracer.snapshot()
    machine.run_program(isa.Program([isa.cpuid()], repeat=iterations))
    per_op = {key: ns / iterations
              for key, ns in machine.tracer.since(before).items()}
    rows = [
        (label, sum(per_op.get(category, 0) for category in categories))
        for label, categories in TABLE1_FOLD
    ]
    total = sum(ns for _, ns in rows)
    return [
        (label, ns / 1000.0, 100.0 * ns / total) for label, ns in rows
    ]
