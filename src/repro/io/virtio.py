"""Split virtqueues (descriptor table + available/used rings).

A functional model of the virtio 1.x split ring: the guest driver posts
buffers into the descriptor table and the available ring, *kicks* the
device through a doorbell (an MMIO write — which is where the VM exits of
Fig. 7 come from), and the device returns completions on the used ring,
usually followed by an interrupt.

The model keeps real FIFO semantics so invariants are testable: every
descriptor made available is used exactly once, ring occupancy never
exceeds the queue size, and completions preserve per-queue order for
in-order devices.
"""

from collections import deque
from dataclasses import dataclass

from repro.errors import VirtualizationError


@dataclass
class VirtioDescriptor:
    """One descriptor-table entry: a guest buffer with a payload."""

    index: int
    payload: object
    length: int
    write_only: bool = False     # device-writable (RX) vs device-readable
    used_length: int = 0


class VirtQueue:
    """One split virtqueue."""

    def __init__(self, name, size=256, obs=None):
        if size < 1 or size & (size - 1):
            raise VirtualizationError("virtqueue size must be a power of 2")
        self.name = name
        self.size = size
        self.obs = obs
        self._free = deque(range(size))
        self._table = [None] * size
        self._avail = deque()
        self._used = deque()
        self.kicks = 0
        # Set by models that coalesce completion interrupts away (real
        # virtio does it with VIRTIO_RING_F_EVENT_IDX).
        self.interrupts_suppressed = False
        # lifetime stats
        self.added = 0
        self.completed = 0

    # -- driver (guest) side ------------------------------------------------

    def add_buffer(self, payload, length, write_only=False):
        """Post one buffer; returns its descriptor index."""
        if not self._free:
            raise VirtualizationError(f"virtqueue {self.name} full")
        idx = self._free.popleft()
        self._table[idx] = VirtioDescriptor(idx, payload, length, write_only)
        self._avail.append(idx)
        self.added += 1
        return idx

    def kick(self):
        """Doorbell write happened (counted; the MMIO exit itself is the
        machine layer's business)."""
        self.kicks += 1
        if self.obs is not None:
            self.obs.count("virtqueue_kicks_total", queue=self.name)

    def should_notify(self):
        """Device side: does this completion warrant an interrupt?
        Call after :meth:`push_used`."""
        return not self.interrupts_suppressed

    def reap_used(self):
        """Driver collects one completion; returns the descriptor."""
        if not self._used:
            raise VirtualizationError(f"virtqueue {self.name}: nothing used")
        idx = self._used.popleft()
        descriptor = self._table[idx]
        self._table[idx] = None
        self._free.append(idx)
        return descriptor

    @property
    def has_used(self):
        return bool(self._used)

    # -- device (backend) side ------------------------------------------------

    def pop_avail(self):
        """Device takes the next available descriptor."""
        if not self._avail:
            return None
        return self._table[self._avail.popleft()]

    def push_used(self, descriptor, used_length=None):
        """Device completes a descriptor."""
        if self._table[descriptor.index] is not descriptor:
            raise VirtualizationError(
                f"virtqueue {self.name}: completing unknown descriptor"
            )
        descriptor.used_length = (
            used_length if used_length is not None else descriptor.length
        )
        self._used.append(descriptor.index)
        self.completed += 1
        if self.obs is not None:
            self.obs.count("virtqueue_completions_total", queue=self.name)

    # -- introspection ------------------------------------------------------

    @property
    def in_flight(self):
        """Descriptors taken by the device but not yet completed."""
        return self.size - len(self._free) - len(self._avail) - len(self._used)

    @property
    def avail_count(self):
        return len(self._avail)

    @property
    def used_count(self):
        return len(self._used)

    def check_invariants(self):
        occupied = sum(1 for d in self._table if d is not None)
        if occupied + len(self._free) != self.size:
            raise AssertionError("descriptor table leak")
        if self.completed > self.added:
            raise AssertionError("completed more buffers than added")
        if len(self._avail) + len(self._used) > occupied:
            raise AssertionError("rings reference unoccupied descriptors")

    def __repr__(self):
        return (
            f"VirtQueue({self.name!r}, size={self.size}, "
            f"avail={self.avail_count}, used={self.used_count})"
        )
