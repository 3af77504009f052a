"""Virtualization substrate: VMCS machinery, EPT, hypervisors, nesting.

Implements the trap-and-emulate world of paper §2 — VM state descriptors
(vmcs01 / vmcs01' / vmcs12 / vmcs02 per Figure 2), the shadowing and
transformation steps, and KVM-like hypervisors that execute Algorithm 1's
control flow for every nested VM trap.
"""
