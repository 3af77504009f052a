"""Shared physical register file and per-context rename maps.

This is the hardware property SVt exploits (paper §3, §4): *"hardware
threads of the same core share a single physical register file"*, and
*"SVt accesses the register renaming map of the target context to index
into the appropriate physical register file entry"*.

The model is functional, not cycle-level: each architectural write
allocates a fresh physical register and frees the previous mapping (an
in-order machine with immediate retirement).  What matters for the paper
— that a colocated context can read/write another context's latest
architectural values *without any memory traffic* — is exactly observable
here, and the sharing invariants are property-tested.
"""

from repro.errors import PrfExhausted, VirtualizationError
from repro.cpu.registers import RegNames


class PhysicalRegisterFile:
    """Fixed-size pool of physical registers shared by all contexts of a
    core (Haswell-class cores have 168 integer PRF entries; we default to
    enough for several full architectural contexts)."""

    def __init__(self, size=512):
        if size < len(RegNames.ALL):
            raise VirtualizationError(
                f"PRF of {size} entries cannot hold one context"
            )
        self.size = size
        self._values = [0] * size
        self._free = list(range(size - 1, -1, -1))
        self._live = set()

    def alloc(self):
        """Take a free physical register; raises :class:`PrfExhausted`."""
        if not self._free:
            raise PrfExhausted(f"all {self.size} physical registers live")
        idx = self._free.pop()
        self._live.add(idx)
        self._values[idx] = 0
        return idx

    def release(self, idx):
        if idx not in self._live:
            raise VirtualizationError(f"releasing non-live phys reg {idx}")
        self._live.remove(idx)
        self._free.append(idx)

    def read(self, idx):
        if idx not in self._live:
            raise VirtualizationError(f"reading non-live phys reg {idx}")
        return self._values[idx]

    def write(self, idx, value):
        if idx not in self._live:
            raise VirtualizationError(f"writing non-live phys reg {idx}")
        self._values[idx] = value & 0xFFFFFFFFFFFFFFFF

    @property
    def live_count(self):
        return len(self._live)

    @property
    def free_count(self):
        return len(self._free)

    def check_invariants(self):
        """Free list and live set partition the register space."""
        free = set(self._free)
        if free & self._live:
            raise AssertionError("free list overlaps live set")
        if len(free) + len(self._live) != self.size:
            raise AssertionError("free list + live set do not cover PRF")
        if len(free) != len(self._free):
            raise AssertionError("duplicate entries in free list")


class RenameMap:
    """Architectural-to-physical mapping for one hardware context."""

    def __init__(self, prf):
        self._prf = prf
        self._map = {}

    def read(self, name):
        """Latest architectural value (0 for never-written registers)."""
        if name not in RegNames.KNOWN:
            raise VirtualizationError(f"unknown register {name!r}")
        idx = self._map.get(name)
        return self._prf.read(idx) if idx is not None else 0

    def write(self, name, value):
        """Rename-and-write: allocate a fresh physical register, retire
        the old mapping."""
        if name not in RegNames.KNOWN:
            raise VirtualizationError(f"unknown register {name!r}")
        idx = self._prf.alloc()
        self._prf.write(idx, value)
        old = self._map.get(name)
        self._map[name] = idx
        if old is not None:
            self._prf.release(old)

    def physical_index(self, name):
        """The physical register currently backing ``name`` (or None)."""
        return self._map.get(name)

    def load_snapshot(self, arch_registers):
        """Bulk-load an :class:`ArchRegisters` snapshot."""
        for name, value in arch_registers.as_dict().items():
            self.write(name, value)

    def extract_snapshot(self):
        """Materialise the context's architectural state."""
        from repro.cpu.registers import ArchRegisters

        snapshot = ArchRegisters()
        for name in self._map:
            snapshot.write(name, self.read(name))
        return snapshot

    def clear(self):
        """Release every mapping (context teardown)."""
        for idx in self._map.values():
            self._prf.release(idx)
        self._map.clear()

    @property
    def mapped_names(self):
        return frozenset(self._map)

    def check_invariants(self):
        """Mapping is injective and every target is live."""
        targets = list(self._map.values())
        if len(targets) != len(set(targets)):
            raise AssertionError("rename map is not injective")
        for idx in targets:
            self._prf.read(idx)  # raises if not live
