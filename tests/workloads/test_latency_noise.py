"""Paper §6.3.1: "SVt acceleration results in lower and less noisy
network receive and transfer latencies."""

import statistics

import pytest

from repro.core.mode import ExecutionMode
from repro.io.net import Packet, install_network
from repro.core.system import Machine
from repro.workloads.netperf import RrConfig, _one_rr


def rr_samples(mode, operations=24):
    machine = Machine(mode=mode)
    net = install_network(machine)
    net.fabric.remote_handler = lambda p: [Packet("r", 1)]
    cfg = RrConfig()
    for i in range(3):
        _one_rr(machine, net, cfg, i + 1)
    return [_one_rr(machine, net, cfg, i + 4) for i in range(operations)]


@pytest.fixture(scope="module")
def samples():
    return {mode: rr_samples(mode)
            for mode in (ExecutionMode.BASELINE, ExecutionMode.SW_SVT)}


def test_svt_latencies_lower(samples):
    assert statistics.fmean(samples[ExecutionMode.SW_SVT]) \
        < statistics.fmean(samples[ExecutionMode.BASELINE])


def test_svt_latencies_less_noisy(samples):
    # The periodic timer re-arm (every 4th op) injects latency spread;
    # SVt shrinks that op's surcharge, tightening the distribution.
    base_sd = statistics.pstdev(samples[ExecutionMode.BASELINE])
    svt_sd = statistics.pstdev(samples[ExecutionMode.SW_SVT])
    assert svt_sd < base_sd


def test_noise_comes_from_the_timer_path(samples):
    # Every 4th RR re-arms the deadline timer: its samples are the slow
    # ones in both systems.
    for mode_samples in samples.values():
        slow = sorted(mode_samples)[-len(mode_samples) // 4:]
        fast = sorted(mode_samples)[:len(mode_samples) // 4]
        assert min(slow) > max(fast)
