"""repro — reproduction of *Using SMT to Accelerate Nested Virtualization*
(Vilanova, Amit, Etsion; ISCA 2019).

The library simulates the paper's whole stack — an SMT core with a shared
physical register file, Intel-style nested virtualization (VMCS
shadowing, vmcs12<->vmcs02 transforms, Algorithm 1), virtio I/O devices,
and the three systems the paper evaluates: stock nested virtualization
(baseline), the software-only SVt prototype, and the proposed SVt
hardware.  Timing is calibrated to the paper's Table 1.

Quick start::

    from repro.core.mode import ExecutionMode
    from repro.core.system import Machine
    from repro.cpu import isa

    machine = Machine(mode=ExecutionMode.HW_SVT)
    result = machine.run_program(isa.Program([isa.cpuid()], repeat=100))
    print(result.ns_per_instruction)   # ~5360 ns vs 10400 baseline
"""

__version__ = "1.0.0"
