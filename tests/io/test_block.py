"""Nested virtio-blk path."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.block import BlkRequest, install_block
from repro.virt.exits import ExitReason


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def blk(machine):
    return install_block(machine)


def submit(machine, blk, sector=0, nbytes=512, write=False):
    request = BlkRequest(sector=sector, nbytes=nbytes, write=write,
                         issued_at=machine.sim.now)
    blk.device.queue_request(request)
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    machine.wait_until(lambda: blk.device.requests.has_used)
    done = blk.device.reap_completions()
    assert done == [request]
    return request


def test_read_request_completes_with_latency(machine, blk):
    request = submit(machine, blk)
    assert request.latency_ns > 0
    assert blk.backend.reads == 1


def test_write_slower_than_read_when_media_dominates(machine, blk):
    # For tiny requests the media time hides inside the exit path (DMA
    # overlaps trap handling); with a large transfer the 512-byte write
    # premium becomes visible end to end.
    nbytes = 256 * 1024
    read = submit(machine, blk, sector=0, nbytes=nbytes, write=False)
    write = submit(machine, blk, sector=1024, nbytes=nbytes, write=True)
    assert write.latency_ns > read.latency_ns


def test_kick_reflected_to_l1(machine, blk):
    submit(machine, blk)
    assert machine.l1.exit_counts[ExitReason.EPT_MISCONFIG] == 1
    # Block path never touches L0's devices — only its exit machinery.
    assert machine.l0.exit_counts[ExitReason.EPT_MISCONFIG] == 0


def test_completion_interrupt_injected_into_l2(machine, blk):
    submit(machine, blk)
    assert machine.stack.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1


def test_store_tracks_written_sectors(machine, blk):
    submit(machine, blk, sector=100, nbytes=2048, write=True)
    assert set(blk.backend.store) == {100, 101, 102, 103}


def test_larger_requests_take_longer(machine, blk):
    small = submit(machine, blk, sector=0, nbytes=512)
    large = submit(machine, blk, sector=64, nbytes=64 * 1024)
    assert large.latency_ns > small.latency_ns


def test_svt_modes_reduce_disk_latency():
    latencies = {}
    for mode in ExecutionMode.ALL:
        machine = Machine(mode=mode)
        blk = install_block(machine)
        latencies[mode] = submit(machine, blk).latency_ns
    assert latencies[ExecutionMode.HW_SVT] < latencies[ExecutionMode.SW_SVT]
    assert latencies[ExecutionMode.SW_SVT] < latencies[ExecutionMode.BASELINE]


def test_batch_of_requests_single_kick(machine, blk):
    requests = [
        BlkRequest(sector=i * 8, nbytes=512, write=False,
                   issued_at=machine.sim.now)
        for i in range(4)
    ]
    for request in requests:
        blk.device.queue_request(request)
    machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
    machine.wait_until(lambda: blk.device.requests.used_count == 4)
    assert machine.l1.exit_counts[ExitReason.EPT_MISCONFIG] == 1
    assert blk.backend.reads == 4
