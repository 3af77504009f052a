"""Nested network path: kick, forward, remote, RX chain."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.fabric import DeviceTimings
from repro.io.net import Packet, install_network
from repro.virt.exits import ExitReason


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def net(machine):
    setup = install_network(machine)
    setup.fabric.remote_handler = lambda packet: [
        Packet(payload=f"reply-to-{packet.payload}", nbytes=64)
    ]
    return setup


def ping(machine, net, payload="ping", nbytes=64):
    net.l2_nic.queue_tx(Packet(payload=payload, nbytes=nbytes))
    started = machine.sim.now
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, 0))
    machine.wait_until(lambda: net.l2_nic.rx.has_used)
    frames = net.l2_nic.reap_rx()
    return machine.sim.now - started, frames


def test_tx_kick_is_a_reflected_ept_misconfig(machine, net):
    net.l2_nic.queue_tx(Packet(payload="x", nbytes=64))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, 0))
    # L1 emulates L2's NIC...
    assert machine.l1.exit_counts[ExitReason.EPT_MISCONFIG] == 1
    # ...and L1's own forwarding kick is a single-level exit to L0.
    assert machine.l0.exit_counts[ExitReason.EPT_MISCONFIG] == 1
    assert net.fabric.transmitted[0].payload == "x"


def test_round_trip_delivers_reply(machine, net):
    rtt, frames = ping(machine, net, payload="hello")
    assert [f.payload for f in frames] == ["reply-to-hello"]
    assert rtt > 0


def test_rx_chain_interrupts_both_levels(machine, net):
    ping(machine, net)
    # RX: one interrupt into L1 (vhost) and one injected into L2.
    exit_counts = machine.stack.exit_counts
    assert exit_counts["L1:" + ExitReason.EXTERNAL_INTERRUPT] >= 1
    assert exit_counts[ExitReason.EXTERNAL_INTERRUPT] >= 1


def test_tx_completion_interrupt_toggleable(machine, net):
    net.l1_backend.notify_tx_completion = False
    before = machine.stack.exit_counts[ExitReason.EXTERNAL_INTERRUPT]
    ping(machine, net)
    # Only the RX injection remains (exactly one).
    assert machine.stack.exit_counts[ExitReason.EXTERNAL_INTERRUPT] \
        == before + 1


def test_rtt_larger_for_larger_frames(machine, net):
    small, _ = ping(machine, net, nbytes=64)
    machine2 = Machine()
    net2 = install_network(machine2)
    net2.fabric.remote_handler = lambda p: [Packet("r", nbytes=16384)]
    big, _ = ping(machine2, net2, nbytes=16384)
    assert big > small


def test_modes_agree_on_functional_outcome():
    payloads = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        setup = install_network(machine)
        setup.fabric.remote_handler = lambda p: [Packet("pong", nbytes=1)]
        _, frames = ping(machine, setup)
        payloads[mode] = [f.payload for f in frames]
    assert payloads[ExecutionMode.BASELINE] == payloads[ExecutionMode.SW_SVT]
    assert payloads[ExecutionMode.BASELINE] == payloads[ExecutionMode.HW_SVT]


def test_svt_modes_reduce_rtt():
    rtts = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        setup = install_network(machine)
        setup.fabric.remote_handler = lambda p: [Packet("pong", nbytes=1)]
        rtts[mode], _ = ping(machine, setup)
    assert rtts[ExecutionMode.HW_SVT] < rtts[ExecutionMode.SW_SVT]
    assert rtts[ExecutionMode.SW_SVT] < rtts[ExecutionMode.BASELINE]


def test_fabric_without_remote_drops(machine):
    setup = install_network(machine)
    setup.l2_nic.queue_tx(Packet("void", nbytes=64))
    machine.run_instruction(isa.mmio_write(setup.l2_nic.doorbell_gpa, 0))
    assert setup.fabric.transmitted
    assert setup.fabric.delivered == 0


def test_custom_timings_respected(machine):
    timings = DeviceTimings(wire_one_way_ns=50_000)
    setup = install_network(machine, timings)
    setup.fabric.remote_handler = lambda p: [Packet("pong", nbytes=1)]
    setup.l2_nic.queue_tx(Packet("ping", nbytes=1))
    started = machine.sim.now
    machine.run_instruction(isa.mmio_write(setup.l2_nic.doorbell_gpa, 0))
    machine.wait_until(lambda: setup.l2_nic.rx.has_used)
    assert machine.sim.now - started > 100_000   # two slow wire crossings
