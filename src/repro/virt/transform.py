"""VMCS transformations between virtualization levels (paper §2.1-§2.2).

Two operations, matching Figure 2 and Algorithm 1.  Step ① (L0
shadowing L1's vmcs01' into vmcs12) needs no copy, because
`repro.virt.nested` models vmcs01' and vmcs12 as one object:

* :func:`transform_12_to_02` — step ② / Alg. 1 line 14: build the
  descriptor L2 really runs on.  Guest-physical addresses set by L1
  become host-physical, and L0's policy is merged in ("L0 configures
  vmcs02 to ensure access to these resources trigger a VM trap,
  regardless of the configuration set by L1").
* :func:`transform_02_to_12` — Alg. 1 line 3: after an L2 trap, reflect
  hardware-written state back into vmcs12 so L1 sees it, translating
  host-physical values back to L1's guest-physical space.
"""

from dataclasses import dataclass, field

from repro.virt.vmcs import FieldRegistry, copy_fields

#: Guest-state fields reflected in both directions.
_GUEST_STATE_FIELDS = tuple(FieldRegistry.names(category="guest"))

#: Control fields copied from vmcs12 into vmcs02 (address-bearing ones get
#: translated on the way).
_CONTROL_FIELDS = tuple(FieldRegistry.names(category="control"))

#: Exit-information fields reflected 02 -> 12 after a nested trap.
_EXIT_FIELDS = tuple(FieldRegistry.names(category="exit"))

#: What 12 -> 02 copies, in order, and the fields among them holding an
#: L1 guest-physical address.
_FIELDS_12_TO_02 = _GUEST_STATE_FIELDS + _CONTROL_FIELDS
_L1_ADDRESS_FIELDS = frozenset(
    FieldRegistry.names(category="control", address_bearing=True)
)

#: What 02 -> 12 reflects, in order, and the field among them holding a
#: host-physical address.
_FIELDS_02_TO_12 = _GUEST_STATE_FIELDS + _EXIT_FIELDS
_HOST_ADDRESS_FIELDS = frozenset({"guest_physical_address"})

#: Sentinel host-physical address standing in for L0's VM-exit entry point.
L0_HANDLER_ENTRY = 0xFFFF_8000_0000_0000


@dataclass
class L0Policy:
    """What L0 forces onto vmcs02 regardless of L1's wishes (paper §2.1:
    timestamp-counter trapping for scheduling/migration is the example)."""

    force_tsc_exit: bool = True
    forced_msr_traps: set = field(default_factory=set)
    forced_io_traps: set = field(default_factory=set)


def transform_12_to_02(vmcs12, vmcs02, ept01, policy, composed_ept=None,
                       obs=None):
    """Build/refresh vmcs02 from vmcs12 (paper Fig. 2 step ②).

    ``ept01`` is L0's EPT for L1 — the table that turns "guest physical
    addresses pertaining to L1" into host-physical ones.  ``composed_ept``
    is the pre-collapsed two-level table for L2 (see
    :meth:`repro.virt.ept.EptTable.compose`); when given, vmcs02's EPT
    pointer is marked as pointing at it.

    Returns the names of address-bearing fields that were translated.
    """
    translated = copy_fields(vmcs12, vmcs02, _FIELDS_12_TO_02,
                             ept01.translate, _L1_ADDRESS_FIELDS)

    # Host-state area of vmcs02 is L0's own, never L1's: a trap from L2
    # must always land in L0 first (paper Fig. 1 step 1).  The sentinel
    # address below stands for L0's trap-handler entry point.
    vmcs02.write("host_rip", L0_HANDLER_ENTRY, force=True)

    # Merge L0 policy on top of L1's trap configuration.
    vmcs02.trapped_msrs = set(vmcs12.trapped_msrs) | set(
        policy.forced_msr_traps
    )
    vmcs02.trapped_io_ports = set(vmcs12.trapped_io_ports) | set(
        policy.forced_io_traps
    )
    vmcs02.force_tsc_exit = vmcs12.force_tsc_exit or policy.force_tsc_exit

    if composed_ept is not None:
        vmcs02.ept = composed_ept
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="12->02",
                  n=len(_FIELDS_12_TO_02))
        obs.count("vmcs_fields_translated_total", direction="12->02",
                  n=len(translated))
    return translated


def transform_02_to_12(vmcs02, vmcs12, ept01, obs=None):
    """Reflect post-trap state of vmcs02 back into vmcs12 (Alg. 1 line 3).

    Guest state (e.g. the RIP that trapped) and the exit-information area
    are copied; host-physical addresses in exit info are translated back
    to L1 guest-physical via the inverse of ``ept01``.

    Returns the reflected field names.
    """
    copy_fields(vmcs02, vmcs12, _FIELDS_02_TO_12, ept01.inverse,
                _HOST_ADDRESS_FIELDS)
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="02->12",
                  n=len(_FIELDS_02_TO_12))
    return list(_FIELDS_02_TO_12)
