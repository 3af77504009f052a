#!/usr/bin/env python3
"""Tour of the nested I/O path — the Figure-7 experiments, end to end.

Shows a single netperf-style network round trip and a single disk request
travelling through the full L2 -> L0 -> L1 -> L0 -> L2 machinery, then
sweeps all three execution modes and prints the Fig. 7 speedup rows.

Usage::

    python examples/nested_io_tour.py
"""

from repro import ExecutionMode, Machine
from repro.analysis.breakdown import exit_reason_profile
from repro.analysis.report import render_result
from repro.cpu import isa
from repro.exp import registry
from repro.io.block import BlkRequest, install_block
from repro.io.net import Packet, install_network


def anatomy_of_one_round_trip():
    """Walk one RR through the baseline machine and narrate the exits."""
    machine = Machine(mode=ExecutionMode.BASELINE)
    net = install_network(machine)
    net.fabric.remote_handler = lambda p: [Packet("pong", 1)]

    net.l2_nic.queue_tx(Packet("ping", 1))
    started = machine.sim.now
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, 0))
    machine.wait_until(lambda: net.l2_nic.rx.has_used)
    net.l2_nic.reap_rx()
    rtt_us = (machine.sim.now - started) / 1000

    print(f"One raw network round trip: {rtt_us:.1f} us")
    print("Exit profile (share of exit-handling time):")
    for reason, share in exit_reason_profile(machine.stack).items():
        if share > 0.01:
            print(f"  {reason:<28s} {share * 100:5.1f}%")
    print()


def figure7_rows():
    """The registered Figure-7 experiment, with the paper's row beside
    each measured one."""
    fig7 = registry.get("fig7")
    print(render_result(fig7.run(fig7.resolve())))


def one_disk_request():
    machine = Machine(mode=ExecutionMode.HW_SVT)
    blk = install_block(machine)
    request = BlkRequest(sector=7, nbytes=512, write=False,
                         issued_at=machine.sim.now)
    blk.device.queue_request(request)
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    machine.wait_until(lambda: blk.device.requests.has_used)
    blk.device.reap_completions()
    print(f"\nOne raw disk read under HW SVt: {request.latency_ns / 1000:.1f}"
          " us (virtqueue kick -> L1 QEMU -> ramfs -> completion irq)")


if __name__ == "__main__":
    anatomy_of_one_round_trip()
    figure7_rows()
    one_disk_request()
