"""Soft-realtime video playback (paper Fig. 10 / §6.3.3).

mplayer plays the first five minutes of a 4K movie at 24/60/120 FPS and
the paper counts dropped frames.  Profiling attributes the damage to
EPT_MISCONFIG (disk chunk reads) and MSR_WRITE (TSC-deadline re-arms):
*"Even if the overheads are small (L2 is idle for 61% of the time), they
are enough to deliver interrupts too late for 40 frames at 120 FPS."*

Mechanism reproduced here: the player re-arms the deadline timer per
frame; every ~0.5 s it reads the next media chunk from the virtio disk —
a *burst* of synchronous reads during which the vCPU is saturated with
exit handling.  A frame wake landing inside a burst is delivered late by
the burst's remaining length; when that exceeds the per-frame slack the
frame is dropped.  SVt shortens the bursts (each read costs less), so
fewer wakes miss — at 24/60 FPS the slack absorbs everything.

Burst durations are *measured* by running the chunk reads through the
live machine in the chosen mode; the 5-minute timeline is then swept
deterministically.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.block import BlkRequest, install_block
from repro.sim.rng import DeterministicRng
from repro.virt.hypervisor import MSR_APIC_EOI

@dataclass(frozen=True)
class VideoConfig:
    duration_s: int = 300            # "the first 5 min" of the movie
    chunk_interval_ms: int = 500     # media chunk read period
    reads_per_chunk: int = 11        # sync metadata+data reads
    chunk_read_work_ns: int = 27000  # demux/copy work per read
    burst_jitter_sigma: float = 0.32  # page cache / readahead variance
    slack_fraction: float = 0.0775   # per-frame delivery tolerance
    decode_share: float = 0.39       # paper: L2 idle 61% of the time


@dataclass(frozen=True)
class VideoResult:
    mode: str
    fps: int
    frames: int
    dropped: int
    burst_us: float


def measure_burst_us(mode=ExecutionMode.BASELINE, config=None, costs=None):
    """Duration of one media-chunk read burst, via the live machine."""
    cfg = config or VideoConfig()
    machine = Machine(mode=mode, costs=costs)
    blk = install_block(machine)
    blk.backend.backend_idles = True

    def one_read(i):
        machine.run_instruction(isa.alu(cfg.chunk_read_work_ns))
        request = BlkRequest(sector=i * 64, nbytes=512, write=False,
                             issued_at=machine.sim.now)
        blk.device.queue_request(request)
        machine.run_instruction(isa.mmio_write(blk.device.doorbell_gpa, 0))
        machine.wait_until(lambda: blk.device.requests.has_used)
        blk.device.reap_completions()
        machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))

    one_read(0)  # warmup
    started = machine.sim.now
    for i in range(cfg.reads_per_chunk):
        one_read(i + 1)
    return (machine.sim.now - started) / 1000.0


def run(mode=ExecutionMode.BASELINE, fps=120, config=None, seed=7,
        costs=None):
    """Count dropped frames over the playback (one Fig. 10 bar)."""
    cfg = config or VideoConfig()
    burst_us = measure_burst_us(mode, cfg, costs=costs)
    rng = DeterministicRng(seed).fork(f"video:{mode}:{fps}")

    period_us = 1e6 / fps
    tolerance_us = cfg.slack_fraction * period_us
    frames = cfg.duration_s * fps
    n_bursts = cfg.duration_s * 1000 // cfg.chunk_interval_ms

    dropped = 0
    for _ in range(int(n_bursts)):
        # Burst length varies with page-cache behaviour; its phase
        # relative to the frame clock is uniform.
        burst = rng.lognormal_around(burst_us, cfg.burst_jitter_sigma)
        phase = rng.uniform(0.0, period_us)
        # Frame wakes land at phase, phase+period, ... inside the burst;
        # each whose remaining burst time exceeds the slack is dropped.
        t = phase
        while t < burst:
            if burst - t > tolerance_us:
                dropped += 1
            t += period_us
    return VideoResult(mode=mode, fps=fps, frames=frames, dropped=dropped,
                       burst_us=burst_us)
