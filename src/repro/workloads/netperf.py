"""netperf over virtio-net (paper Fig. 7, network columns).

Two benchmarks, exactly the paper's:

* **TCP RR** — round-trip time of 1-byte packets ("network latency").
* **TCP STREAM** — throughput of 16 KB packets ("network bandwidth").

The RR operation drives the full nested path: TX kick (reflected
EPT_MISCONFIG), TX-completion and RX interrupts into L2 (reflected
EXTERNAL_INTERRUPT with the event-injection aux trap), APIC EOIs
(reflected MSR_WRITE — L1 emulates its guest's x2APIC), idle entry (HLT
exit), L1's own forwarding kick / interrupts / EOIs / idle (single-level
exits), and a periodic TSC-deadline re-arm.  Every one of these exits
walks Algorithm 1 through the live machinery, so the three modes price
them per their switch engines.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.fabric import DeviceTimings, serialization_ns
from repro.io.net import Packet, TXQ, install_network
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE

@dataclass(frozen=True)
class RrConfig:
    """TCP_RR shape knobs (calibrated against the paper's baseline)."""

    request_bytes: int = 1
    reply_bytes: int = 1
    guest_work_tx_ns: int = 5200    # L2 TCP stack, send side
    guest_work_rx_ns: int = 5200    # ...receive side
    l1_eoi_singles: int = 2         # L1's own APIC EOIs per RR
    l1_hlt_singles: int = 1         # L1 idling between events
    timer_rearm_every: int = 4      # reflected deadline write every N ops


@dataclass(frozen=True)
class StreamConfig:
    """TCP_STREAM shape knobs."""

    message_bytes: int = 16 * 1024
    batch: int = 12                 # messages per kick (GSO-style batching)
    guest_work_per_msg_ns: int = 4280
    messages: int = 240
    # Streaming suppresses TX-completion interrupts (virtio event-index).
    tx_completion_irq: bool = False


def _build(mode, costs=None, timings=None):
    machine = Machine(mode=mode, costs=costs)
    net = install_network(machine, timings)
    return machine, net


def _one_rr(machine, net, cfg, op_index):
    """One netperf TCP_RR transaction; returns its round-trip time."""
    stack = machine.stack
    vcpu = machine.l2_vm.vcpu
    started = machine.sim.now

    # Send side: TCP stack work, post the request, kick the NIC.
    machine.run_instruction(isa.alu(cfg.guest_work_tx_ns))
    net.l2_nic.queue_tx(Packet("rr-req", cfg.request_bytes))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, TXQ))

    # The deferred TX-completion interrupt lands before this EOI runs.
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))

    # Guest idles awaiting the reply; L1 idles/EOIs around its own events.
    machine.run_instruction(isa.hlt())
    vcpu.halted = False
    for _ in range(cfg.l1_hlt_singles):
        stack.l1_exit(ExitInfo(ExitReason.HLT))
        machine.l1_vm.vcpu.halted = False
    machine.wait_until(lambda: net.l2_nic.rx.has_used)
    net.l2_nic.reap_rx()

    # Acknowledge the RX interrupt; L1 acknowledges its own.
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    for _ in range(cfg.l1_eoi_singles):
        stack.l1_exit(ExitInfo(ExitReason.MSR_WRITE,
                               {"msr": MSR_APIC_EOI, "value": 0}))

    # Receive-side stack work, periodic timer re-arm.
    machine.run_instruction(isa.alu(cfg.guest_work_rx_ns))
    if op_index % cfg.timer_rearm_every == 0:
        machine.run_instruction(
            isa.wrmsr(MSR_TSC_DEADLINE, machine.sim.now + 1_000_000_000)
        )
    return machine.sim.now - started


def run_latency(mode=ExecutionMode.BASELINE, config=None, operations=24,
                warmup=3, costs=None, timings=None):
    """TCP_RR mean latency in µs (Fig. 7 "Network / Latency")."""
    cfg = config or RrConfig()
    machine, net = _build(mode, costs, timings)
    net.fabric.remote_handler = lambda packet: [
        Packet("rr-reply", cfg.reply_bytes)
    ]
    for i in range(warmup):
        _one_rr(machine, net, cfg, i + 1)
    samples = [
        _one_rr(machine, net, cfg, warmup + i + 1)
        for i in range(operations)
    ]
    return sum(samples) / len(samples) / 1000.0


def run_bandwidth(mode=ExecutionMode.BASELINE, config=None, costs=None,
                  timings=None):
    """TCP_STREAM throughput in Mbps (Fig. 7 "Network / Bandwidth").

    The guest streams batches of 16 KB messages; the CPU-side cost comes
    from the live exit path, while the wire imposes its serialization
    floor.  Reported throughput is the minimum of the two — the paper's
    baseline sits just below the 10 Gb line ("network bandwidth is close
    to the physical limit").
    """
    cfg = config or StreamConfig()
    timings = timings or DeviceTimings()
    machine, net = _build(mode, costs, timings)
    net.l1_backend.notify_tx_completion = cfg.tx_completion_irq
    started = machine.sim.now
    sent = 0
    while sent < cfg.messages:
        batch = min(cfg.batch, cfg.messages - sent)
        for _ in range(batch):
            machine.run_instruction(isa.alu(cfg.guest_work_per_msg_ns))
            net.l2_nic.queue_tx(Packet("stream", cfg.message_bytes))
        machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, TXQ))
        machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
        machine.stack.l1_exit(ExitInfo(ExitReason.MSR_WRITE,
                                       {"msr": MSR_APIC_EOI, "value": 0}))
        sent += batch
    machine.service_io()
    cpu_ns = machine.sim.now - started
    total_bytes = cfg.messages * cfg.message_bytes
    wire_ns = serialization_ns(total_bytes, timings.nic_effective_gbps)
    elapsed = max(cpu_ns, wire_ns)
    return total_bytes * 8 * 1000.0 / elapsed  # Mbps
