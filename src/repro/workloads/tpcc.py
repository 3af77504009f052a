"""TPC-C over PostgreSQL (paper Fig. 9 / §6.3.2).

The paper runs sysbench's TPC-C addon against a PostgreSQL instance in
L2 — "a proxy for network and disk throughput".  A transaction is a burst
of client/server query round trips (network path) plus WAL/heap I/O
(disk path) plus query processing.  We drive those components through the
live machine and report transactions/minute.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.block import BlkRequest, install_block
from repro.io.net import Packet, TXQ, install_network
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI

@dataclass(frozen=True)
class TpccConfig:
    """Transaction shape (sysbench TPC-C defaults, scaled to the paper's
    throughput)."""

    queries_per_txn: int = 55        # client/server round trips
    wal_writes_per_txn: int = 22     # WAL + heap sync writes
    heap_reads_per_txn: int = 12     # buffer-cache misses
    query_work_ns: int = 2600        # executor work per query
    plan_work_ns: int = 8_940_000    # parse/plan/execute CPU per txn
    workers: int = 2                 # usable L2 vCPUs (Table 4)
    l1_wakes_per_query: int = 5      # vhost/event-loop wakeups


def _one_query(machine, net, cfg):
    """One client query round trip served by L2 (memcached-style path)."""
    stack = machine.stack
    for _ in range(cfg.l1_wakes_per_query):
        stack.engine.charge_guest_wake(1)
    stack.inject_irq_into_l2(0x60)
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    machine.run_instruction(isa.alu(cfg.query_work_ns))
    net.l2_nic.queue_tx(Packet("result", 256))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, TXQ))
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    machine.stack.l1_exit(ExitInfo(ExitReason.MSR_WRITE,
                                   {"msr": MSR_APIC_EOI, "value": 0}))


def _one_disk_op(machine, blk, sector, write):
    request = BlkRequest(sector=sector, nbytes=8192, write=write,
                         issued_at=machine.sim.now)
    blk.device.queue_request(request)
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    if write:
        # WAL fsync: journaling privileged ops in L1 (as in the fio
        # write path, amortised).
        for _ in range(6):
            machine.stack.l1_aux_op(ExitReason.VMWRITE)
    machine.wait_until(lambda: blk.device.requests.has_used)
    blk.device.reap_completions()
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))


def _one_transaction(machine, net, blk, cfg):
    started = machine.sim.now
    for _ in range(cfg.queries_per_txn):
        _one_query(machine, net, cfg)
    for i in range(cfg.heap_reads_per_txn):
        _one_disk_op(machine, blk, sector=1000 + i * 16, write=False)
    for i in range(cfg.wal_writes_per_txn):
        _one_disk_op(machine, blk, sector=8000 + i * 16, write=True)
    machine.run_instruction(isa.alu(cfg.plan_work_ns))
    return machine.sim.now - started


@dataclass(frozen=True)
class TpccResult:
    mode: str
    txn_ms: float
    ktpm: float


def run(mode=ExecutionMode.BASELINE, config=None, transactions=3,
        costs=None):
    """Measured TPC-C throughput (thousand transactions/minute)."""
    cfg = config or TpccConfig()
    machine = Machine(mode=mode, costs=costs)
    net = install_network(machine)
    net.l1_backend.notify_tx_completion = False
    blk = install_block(machine)
    blk.backend.backend_idles = True
    _one_transaction(machine, net, blk, cfg)   # warmup
    total = sum(
        _one_transaction(machine, net, blk, cfg)
        for _ in range(transactions)
    )
    txn_ns = total / transactions
    tpm = cfg.workers * 60e9 / txn_ns
    return TpccResult(mode=mode, txn_ms=txn_ns / 1e6, ktpm=tpm / 1000.0)
