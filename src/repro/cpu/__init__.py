"""CPU substrate: SMT cores, register files, ISA, interrupts, timing.

This package models the hardware the paper's design modifies.  The SMT
core (`repro.cpu.smt`) exposes the pieces SVt builds on — per-context
rename maps over a shared physical register file, and a fetch-target
register — while `repro.cpu.costs` holds every timing constant, calibrated
against the paper's Table 1 breakdown.
"""
