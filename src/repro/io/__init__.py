"""I/O substrate: virtio devices over the nested stack.

The paper's I/O benchmarks (Fig. 7) run netperf/ioping/fio inside L2
against virtio-net (+vhost) and virtio-blk (on a tmpfs-backed image,
Table 4).  This package provides functional virtqueues, the device
front-ends that trap via EPT-misconfig MMIO kicks, and the backend chain:
L2's devices are emulated by L1 (whose vhost then drives *its own* virtio
devices, emulated by L0), so one L2 I/O touches every layer of Figure 1.
"""
