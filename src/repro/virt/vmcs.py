"""VM state descriptor (VMCS in Intel parlance) — paper §2.1/Figure 2.

A VMCS "contains various fields that describe information such as the
reason of a VM trap ... or the context of the host and its guest vCPU".
We model a typed field registry with the properties the nested-
virtualization machinery cares about:

* ``address_bearing`` — the field holds a physical address and therefore
  must be translated between guest-physical and host-physical space when
  L0 transforms vmcs12 into vmcs02 (paper §2.1: "L0 must thus transform
  these addresses into the actual host physical addresses").
* ``shadow_read`` / ``shadow_write`` — whether Intel-style hardware VMCS
  shadowing can satisfy the access without a VM trap (paper §2.1: "the
  CPU can only shadow some of the VMCS fields").

The three SVt fields of paper Table 2 are ordinary fields here, so the
shadowing/transformation machinery applies to them unchanged.
"""

from dataclasses import dataclass

from repro.errors import VmcsError
from repro.sim import sanitizer as _san


@dataclass(frozen=True)
class Field:
    """Metadata for one VMCS field."""

    name: str
    category: str              # "guest", "host", "control", "exit", "svt"
    address_bearing: bool = False
    shadow_read: bool = False
    shadow_write: bool = False
    writable: bool = True


def _build_fields():
    fields = []

    def f(*args, **kwargs):
        fields.append(Field(*args, **kwargs))

    # Guest-state area: loaded/saved on VM entry/exit.  Register state is
    # shadow-accessible on recent Intel parts.
    for reg in ("rip", "rsp", "rflags", "cr0", "cr3", "cr4", "efer"):
        f(f"guest_{reg}", "guest", shadow_read=True, shadow_write=True)
    f("guest_activity_state", "guest", shadow_read=True, shadow_write=True)
    f("guest_interruptibility", "guest", shadow_read=True, shadow_write=True)

    # Host-state area: where the hypervisor resumes on a trap.
    for reg in ("rip", "rsp", "cr3"):
        f(f"host_{reg}", "host")

    # Execution controls.  Address-bearing controls point at structures in
    # (host- or guest-) physical memory and are never shadow-writable.
    f("pin_based_controls", "control")
    f("proc_based_controls", "control")
    f("secondary_controls", "control")
    f("exception_bitmap", "control")
    f("exit_controls", "control")
    f("entry_controls", "control")
    f("entry_interruption_info", "control")   # event injection
    f("tsc_offset", "control")
    f("preemption_timer_value", "control", shadow_read=True,
      shadow_write=True)
    f("msr_bitmap_addr", "control", address_bearing=True)
    f("io_bitmap_addr", "control", address_bearing=True)
    f("ept_pointer", "control", address_bearing=True)
    f("virtual_apic_addr", "control", address_bearing=True)
    f("vmcs_link_pointer", "control", address_bearing=True)

    # Exit-information area: read-only to software, shadow-readable.
    f("exit_reason", "exit", shadow_read=True, writable=False)
    f("exit_qualification", "exit", shadow_read=True, writable=False)
    f("guest_linear_address", "exit", shadow_read=True, writable=False)
    f("guest_physical_address", "exit", shadow_read=True, writable=False)
    f("instruction_length", "exit", shadow_read=True, writable=False)
    f("interruption_info", "exit", shadow_read=True, writable=False)

    # SVt additions (paper Table 2): target contexts for trap/resume
    # steering and nested cross-context register access.
    f("svt_visor", "svt")
    f("svt_vm", "svt")
    f("svt_nested", "svt")

    return {fld.name: fld for fld in fields}


class FieldRegistry:
    """The (singleton) set of known VMCS fields."""

    FIELDS = _build_fields()

    @classmethod
    def get(cls, name):
        try:
            return cls.FIELDS[name]
        except KeyError:
            raise VmcsError(f"unknown VMCS field {name!r}") from None

    @classmethod
    def names(cls, category=None, address_bearing=None):
        out = []
        for fld in cls.FIELDS.values():
            if category is not None and fld.category != category:
                continue
            if (address_bearing is not None
                    and fld.address_bearing != address_bearing):
                continue
            out.append(fld.name)
        return out


#: Names software may write without ``force``, and the names whose
#: access by a shadowing guest traps (no unknown name is in any of them).
_WRITABLE = frozenset(
    name for name, fld in FieldRegistry.FIELDS.items() if fld.writable)
_READ_TRAPS = frozenset(
    name for name, fld in FieldRegistry.FIELDS.items()
    if not fld.shadow_read)
_WRITE_TRAPS = frozenset(
    name for name, fld in FieldRegistry.FIELDS.items()
    if not fld.shadow_write)


class Vmcs:
    """One VM state descriptor.

    Naming follows the paper: ``vmcs01`` is managed by L0 and represents
    L1; ``vmcs01'`` is L1's own descriptor for L2; ``vmcs12`` is L0's
    shadow of vmcs01'; ``vmcs02`` is what L0 actually runs L2 on.

    The descriptor does **not** hold the whole VM context (paper §2.1) —
    register state beyond the fields above lives in the hardware context
    or hypervisor memory.
    """

    def __init__(self, name, exit_on_write_callback=None):
        self.name = name
        self._values = {}
        # When set, reads/writes of non-shadowed fields invoke this
        # callback — that is how an L1 access to vmcs01' traps into L0
        # (paper Alg. 1 lines 8-10).
        self._trap_callback = exit_on_write_callback
        # Software-configured trap sets (paper §3.1: "Intel uses various
        # VMCS fields to identify which registers will trap").
        self.trapped_msrs = set()
        self.trapped_io_ports = set()
        self.force_tsc_exit = False
        # The EPT hierarchy this descriptor runs its guest on.  Kept as an
        # object reference alongside the numeric ept_pointer field: the
        # simulator needs the structure, the transform code the address.
        self.ept = None

    # -- raw access (no shadow semantics; used by the owning hypervisor) --

    def read(self, field_name):
        values = self._values
        if field_name not in values:
            # Every stored name is registered (write and restore admit
            # no other, copy_fields copies registered ones), so only a
            # miss can be an unknown name.
            FieldRegistry.get(field_name)
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", field_name, "r",
                               "Vmcs.read")
        return values.get(field_name, 0)

    def write(self, field_name, value, force=False):
        if field_name not in _WRITABLE:
            FieldRegistry.get(field_name)        # an unknown name raises
            if not force:
                raise VmcsError(
                    f"field {field_name} is read-only to software")
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", field_name, "w",
                               "Vmcs.write")
        self._values[field_name] = value

    # -- shadowed access (used by a guest hypervisor on its own VMCS) -----

    def guest_read(self, field_name):
        """Read as a *virtualized* hypervisor: shadow-readable fields are
        served from the shadow copy; others trap to the supervising
        hypervisor first (cost and bookkeeping via the callback).  An
        unknown name raises before any trap."""
        if field_name in _READ_TRAPS and self._trap_callback is not None:
            self._trap_callback("VMREAD", field_name)
        return self.read(field_name)

    def guest_write(self, field_name, value):
        """Write as a virtualized hypervisor (see :meth:`guest_read`).
        The write is forced, so it lands in read-only exit-information
        fields too."""
        if field_name in _WRITE_TRAPS and self._trap_callback is not None:
            self._trap_callback("VMWRITE", field_name)
        self.write(field_name, value, force=True)

    # -- exit info plumbing -------------------------------------------------

    def record_exit(self, exit_info):
        """Hardware writing the exit-information area on a VM trap."""
        self.write("exit_reason", exit_info.reason, force=True)
        self.write("exit_qualification",
                   dict(exit_info.qualification), force=True)
        self.write("guest_rip", exit_info.guest_rip)
        self.write("instruction_length",
                   exit_info.instruction_length, force=True)

    def snapshot(self):
        return dict(self._values)

    def diff(self, values):
        """Field names whose current value differs from a snapshot —
        how the chaos scrubber detects injected corruption."""
        names = set(self._values) | set(values)
        return sorted(
            name for name in names
            if self._values.get(name, 0) != values.get(name, 0)
        )

    def restore(self, values):
        """Reset the value store to a snapshot (the repair path after
        detected corruption); returns the names of the fields that
        changed.  An unknown name in ``values`` raises, which keeps
        every stored name registered."""
        unknown = values.keys() - FieldRegistry.FIELDS.keys()
        if unknown:
            FieldRegistry.get(min(unknown))      # raises VmcsError
        changed = self.diff(values)
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", "*", "w",
                               "Vmcs.restore")
        self._values = dict(values)
        return changed

    def __repr__(self):
        return f"Vmcs({self.name!r}, {len(self._values)} fields set)"


def copy_fields(src, dst, names, convert, convertible):
    """Forced-write the fields ``names`` from ``src`` into ``dst``, in
    order — the bulk copy behind the vmcs12 <-> vmcs02 transforms.

    The effect is that of ``dst.write(name, src.read(name), force=True)``
    per name, minus the per-field method calls and registry lookups, so
    ``names`` must be registered fields.  A nonzero integer in a field
    of ``convertible`` passes through ``convert`` on the way (an address
    translation).  An active sanitizer sees each field's read and write
    in the same order; if ``convert`` raises, the fields before it are
    already written.  Returns the converted names.
    """
    values = src._values
    store = dst._values
    sanitizer = _san.ACTIVE
    converted = []
    for name in names:
        value = values.get(name, 0)
        if sanitizer is not None:
            sanitizer.record(f"vmcs:{src.name}", name, "r", "Vmcs.read")
        if name in convertible and isinstance(value, int) and value != 0:
            value = convert(value)
            converted.append(name)
        if sanitizer is not None:
            sanitizer.record(f"vmcs:{dst.name}", name, "w", "Vmcs.write")
        store[name] = value
    return converted
