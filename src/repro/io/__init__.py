"""I/O substrate: virtio devices over the nested stack.

The paper's I/O benchmarks (Fig. 7) run netperf/ioping/fio inside L2
against virtio-net (+vhost) and virtio-blk (on a tmpfs-backed image,
Table 4).  This package provides functional virtqueues, the device
front-ends that trap via EPT-misconfig MMIO kicks, and the backend chain:
L2's devices are emulated by L1 (whose vhost then drives *its own* virtio
devices, emulated by L0), so one L2 I/O touches every layer of Figure 1.
"""

from repro.io.fabric import DeviceTimings, serialization_ns
from repro.io.virtio import VirtQueue, VirtioDescriptor
from repro.io.device import MmioDevice, PortDevice
from repro.io.net import (
    NetworkFabric,
    VhostNetBackend,
    VirtioNetDevice,
    install_network,
)
from repro.io.block import (
    BlkRequest,
    RamDiskBackend,
    VirtioBlkDevice,
    install_block,
)

__all__ = [
    "BlkRequest",
    "DeviceTimings",
    "MmioDevice",
    "NetworkFabric",
    "PortDevice",
    "RamDiskBackend",
    "VhostNetBackend",
    "VirtQueue",
    "VirtioBlkDevice",
    "VirtioDescriptor",
    "VirtioNetDevice",
    "install_block",
    "install_network",
    "serialization_ns",
]
