"""ioping / fio over virtio-blk (paper Fig. 7, disk columns).

* **ioping** — synchronous 512 B random reads/writes: per-request latency
  (Fig. 7 "Disk randrd/randwr Latency").
* **fio** — 4 KB random reads/writes at queue depth: sustained bandwidth
  (Fig. 7 "Disk randrd/randwr Bandwidth").

Path shapes (calibrated to the paper's baseline absolutes):

* *Reads* are notification-heavy: the guest sleeps per request, so every
  submit/complete pays interrupt, EOI and wakeup traffic — lots of
  reflected exits, which is why SW SVt helps reads most.
* *Writes* keep L1's QEMU I/O thread busy (journaling, dirty tracking,
  sync flags): fewer guest notifications but many more L1 privileged
  operations that trap to L0 (aux exits) — SW SVt barely helps while
  HW SVt, which also elides those, gains most.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.block import BlkRequest, install_block
from repro.io.fabric import DeviceTimings
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI

@dataclass(frozen=True)
class IopingConfig:
    """Synchronous 512 B accesses (latency test)."""

    nbytes: int = 512
    read_guest_work_ns: int = 18200   # syscall + fs + page-cache miss
    write_guest_work_ns: int = 24200  # + dirty accounting, sync write path
    read_hlt_exits: int = 1           # guest sleeps awaiting completion
    read_l1_singles: int = 0
    read_extra_wakes: int = 1         # additional worker-thread wakeups
    write_l1_aux_ops: int = 26        # journaling/sync privileged ops in L1
    write_l1_singles: int = 14        # L1's own bookkeeping exits
    write_extra_wakes: int = 1


@dataclass(frozen=True)
class FioConfig:
    """4 KB random access at queue depth (bandwidth test)."""

    nbytes: int = 4096
    read_queue_depth: int = 8      # reads pipeline deeper (no ordering)
    write_queue_depth: int = 4     # sync semantics cap write batching
    requests: int = 64
    read_guest_work_ns: int = 11400
    write_guest_work_ns: int = 8600
    write_l1_aux_ops: int = 9         # per request, amortised journaling
    write_l1_singles: int = 5
    read_extra_wakes: int = 4         # per batch: AIO/eventfd worker wakes
    write_extra_wakes: int = 6        # per batch: flush-thread wakes


def _machine(mode, costs=None, timings=None):
    machine = Machine(mode=mode, costs=costs)
    blk = install_block(machine, timings or DeviceTimings())
    return machine, blk


def _eoi(machine):
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))


def _l1_single(machine, reason=ExitReason.MSR_WRITE):
    machine.stack.l1_exit(ExitInfo(reason, {"msr": MSR_APIC_EOI,
                                            "value": 0}))


def _one_sync_request(machine, blk, cfg, write):
    """One ioping-style synchronous request; returns its latency."""
    stack = machine.stack
    started = machine.sim.now
    work = cfg.write_guest_work_ns if write else cfg.read_guest_work_ns
    machine.run_instruction(isa.alu(work))
    request = BlkRequest(sector=(started // 512) % 65536, nbytes=cfg.nbytes,
                         write=write, issued_at=machine.sim.now)
    blk.device.queue_request(request)
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    if write:
        # L1's write path: journaling and sync privileged ops.
        for _ in range(cfg.write_l1_aux_ops):
            stack.l1_aux_op(ExitReason.VMWRITE)
        for _ in range(cfg.write_l1_singles):
            _l1_single(machine)
        for _ in range(cfg.write_extra_wakes):
            stack.engine.charge_guest_wake(1)
    else:
        for _ in range(cfg.read_hlt_exits):
            machine.run_instruction(isa.hlt())
            machine.l2_vm.vcpu.halted = False
        for _ in range(cfg.read_l1_singles):
            _l1_single(machine)
        for _ in range(cfg.read_extra_wakes):
            stack.engine.charge_guest_wake(1)
    machine.wait_until(lambda: blk.device.requests.has_used)
    blk.device.reap_completions()
    _eoi(machine)
    return machine.sim.now - started


def run_latency(mode=ExecutionMode.BASELINE, write=False, config=None,
                operations=20, warmup=2, costs=None, timings=None):
    """ioping mean latency in µs (Fig. 7 disk latency columns)."""
    cfg = config or IopingConfig()
    machine, blk = _machine(mode, costs, timings)
    blk.backend.backend_idles = not write   # write path keeps L1 busy
    for _ in range(warmup):
        _one_sync_request(machine, blk, cfg, write)
    samples = [
        _one_sync_request(machine, blk, cfg, write)
        for _ in range(operations)
    ]
    return sum(samples) / len(samples) / 1000.0


def run_bandwidth(mode=ExecutionMode.BASELINE, write=False, config=None,
                  costs=None, timings=None):
    """fio sustained throughput in KB/s (Fig. 7 disk bandwidth columns).

    Submits batches of ``queue_depth`` requests per kick; completions
    arrive batched with one interrupt per batch.
    """
    cfg = config or FioConfig()
    machine, blk = _machine(mode, costs, timings)
    blk.backend.backend_idles = not write
    stack = machine.stack
    started = machine.sim.now
    submitted = 0
    depth = cfg.write_queue_depth if write else cfg.read_queue_depth
    while submitted < cfg.requests:
        batch = min(depth, cfg.requests - submitted)
        work = cfg.write_guest_work_ns if write else cfg.read_guest_work_ns
        for i in range(batch):
            machine.run_instruction(isa.alu(work))
            blk.device.queue_request(BlkRequest(
                sector=(submitted + i) * 8, nbytes=cfg.nbytes, write=write,
                issued_at=machine.sim.now,
            ))
        machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
        if write:
            for _ in range(cfg.write_l1_aux_ops * batch):
                stack.l1_aux_op(ExitReason.VMWRITE)
            for _ in range(cfg.write_l1_singles):
                _l1_single(machine)
            for _ in range(cfg.write_extra_wakes):
                stack.engine.charge_guest_wake(1)
        else:
            for _ in range(cfg.read_extra_wakes):
                stack.engine.charge_guest_wake(1)
        submitted += batch
        machine.wait_until(
            lambda want=submitted: blk.device.requests.completed >= want
        )
        blk.device.reap_completions()
        _eoi(machine)
    elapsed = machine.sim.now - started
    total_kb = cfg.requests * cfg.nbytes / 1024.0
    return total_kb * 1e9 / elapsed  # KB/s
