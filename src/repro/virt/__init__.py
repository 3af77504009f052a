"""Virtualization substrate: VMCS machinery, EPT, hypervisors, nesting.

Implements the trap-and-emulate world of paper §2 — VM state descriptors
(vmcs01 / vmcs01' / vmcs12 / vmcs02 per Figure 2), the shadowing and
transformation steps, and KVM-like hypervisors that execute Algorithm 1's
control flow for every nested VM trap.
"""

from repro.virt.deep import DeepNestingModel
from repro.virt.ept import EptTable, MmioRegion
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.l3 import ThirdLevelStack, install_third_level
from repro.virt.transform import transform_02_to_12, transform_12_to_02
from repro.virt.vmcs import Field, FieldRegistry, Vmcs

__all__ = [
    "DeepNestingModel",
    "EptTable",
    "ExitInfo",
    "ExitReason",
    "ThirdLevelStack",
    "install_third_level",
    "Field",
    "FieldRegistry",
    "MmioRegion",
    "Vmcs",
    "transform_02_to_12",
    "transform_12_to_02",
]
