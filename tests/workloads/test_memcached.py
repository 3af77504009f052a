"""memcached workload: Figure 8 shape."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import memcached

LOADS = [5.0, 10.0, 15.0, 17.5]


@pytest.fixture(scope="module")
def results():
    return {
        mode: memcached.run(mode, loads_kqps=LOADS, requests=12_000)
        for mode in (ExecutionMode.BASELINE, ExecutionMode.SW_SVT)
    }


def test_service_time_ordering(results):
    base = results[ExecutionMode.BASELINE]
    svt = results[ExecutionMode.SW_SVT]
    assert svt.service_get_us < base.service_get_us
    assert base.service_set_us > base.service_get_us


def test_latency_rises_with_load(results):
    for result in results.values():
        p99s = [point.p99_us for point in result.points]
        assert p99s == sorted(p99s)


def test_svt_sustains_more_load_within_sla(results):
    base = results[ExecutionMode.BASELINE]
    svt = results[ExecutionMode.SW_SVT]
    assert memcached.max_load_within_sla(svt.points) \
        > memcached.max_load_within_sla(base.points)


def test_headline_improvements_near_paper(results):
    p99_ratio, avg_ratio = memcached.headline_improvements(
        results[ExecutionMode.BASELINE].points,
        results[ExecutionMode.SW_SVT].points,
    )
    paper = claims.paper("fig8")
    assert p99_ratio == pytest.approx(paper["p99_improvement"], abs=0.35)
    assert avg_ratio == pytest.approx(paper["avg_improvement"], abs=0.25)


def test_p99_dominates_average(results):
    for result in results.values():
        for point in result.points:
            assert point.p99_us > point.avg_us


def test_deterministic_given_seed():
    a = memcached.run(ExecutionMode.BASELINE, loads_kqps=[10.0],
                      requests=4_000, seed=3)
    b = memcached.run(ExecutionMode.BASELINE, loads_kqps=[10.0],
                      requests=4_000, seed=3)
    assert a.points[0].p99_us == b.points[0].p99_us


def test_ept_misconfig_dominates_profile():
    # Paper §6.3.1: "L0 spends 4.8%-19.3% of the overall time serving
    # EPT_MISCONFIG traps ... and 0.5%-4.6% serving MSR_WRITE".
    from repro.analysis.breakdown import exit_reason_profile
    from repro.core.system import Machine
    from repro.io.net import install_network

    machine = Machine(mode=ExecutionMode.BASELINE)
    net = install_network(machine)
    net.l1_backend.notify_tx_completion = False
    cfg = memcached.EtcConfig()
    for i in range(12):
        memcached._serve_one(machine, net, cfg, i % 10 != 0, i + 1)
    profile = exit_reason_profile(machine.stack)
    assert profile.get("EPT_MISCONFIG", 0) > profile.get("MSR_WRITE", 0) \
        or profile.get("EPT_MISCONFIG", 0) > 0.04


def test_fast_queueing_loop_is_bit_identical_to_reference():
    """The inlined-sampler fast loop replays the reference bit-for-bit."""
    from repro.sim.rng import DeterministicRng

    cfg = memcached.EtcConfig()
    for seed in (1, 42, 9001):
        for load in (5.0, 12.5, 22.5):
            reference = memcached._queueing_run_reference(
                2600.0, 5800.0, load, cfg,
                DeterministicRng(seed).fork(f"t:{load}"), requests=6_000)
            fast = memcached._queueing_run_fast(
                2600.0, 5800.0, load, cfg,
                DeterministicRng(seed).fork(f"t:{load}"), requests=6_000)
            assert fast == reference


def test_sojourn_mean_is_a_left_fold():
    """The sojourn mean is the same double on every Python version:
    3.12's compensated ``sum()`` would round ten 0.1s to exactly 1.0,
    where the left fold (and the native queue loop) gives 1 - 2**-53."""
    assert memcached._mean([0.1] * 10) == 0.9999999999999999 / 10


def test_queueing_dispatch_falls_back_on_unsupported_shapes():
    """Shapes the fast loop does not compile take the reference path."""
    from repro.sim.rng import DeterministicRng

    odd = memcached.EtcConfig(servers=3)
    dispatched = memcached._queueing_run(
        2600.0, 5800.0, 10.0, odd, DeterministicRng(7), requests=3_000)
    reference = memcached._queueing_run_reference(
        2600.0, 5800.0, 10.0, odd, DeterministicRng(7), requests=3_000)
    assert dispatched == reference


def test_batch_queueing_is_bit_identical_to_reference():
    """The native replay reproduces the reference loop bit-for-bit,
    rng end position included."""
    from repro.sim.rng import DeterministicRng
    from repro.workloads import native_queue

    if native_queue.native_status() != native_queue.OK:
        pytest.skip(f"no native tier: {native_queue.native_status()}")
    cfg = memcached.EtcConfig()
    for seed in (1, 42):
        for load in (5.0, 22.5):
            ref_rng = DeterministicRng(seed).fork(f"b:{load}")
            nat_rng = DeterministicRng(seed).fork(f"b:{load}")
            reference = memcached._queueing_run_reference(
                2600.0, 5800.0, load, cfg, ref_rng, requests=6_000)
            native = native_queue.queue_replay(
                2600.0, 5800.0, load, cfg, nat_rng, requests=6_000)
            assert native == reference
            # The rng must sit exactly where the reference loop left
            # it, so no downstream draw can tell the paths apart.
            assert nat_rng.getstate() == ref_rng.getstate()


def test_batch_dispatch_degrades_to_fast_path_without_native_tier(
        monkeypatch):
    """REPRO_BATCH_NATIVE=0 routes the compiled shape to the Python
    fast path, which equals the reference loop."""
    from repro.sim.rng import DeterministicRng
    from repro.workloads import native_queue

    monkeypatch.setenv(native_queue.NATIVE_ENV_VAR, "0")
    native_queue.reset_native_probe()
    native_queue.reset_native_stats()
    try:
        dispatched = memcached._queueing_run(
            2600.0, 5800.0, 12.5, memcached.EtcConfig(),
            DeterministicRng(11), requests=3_000)
        assert native_queue.native_stats() == {"calls": 0,
                                               "fallbacks": 1}
    finally:
        native_queue.reset_native_probe()
    reference = memcached._queueing_run_reference(
        2600.0, 5800.0, 12.5, memcached.EtcConfig(),
        DeterministicRng(11), requests=3_000)
    assert dispatched == reference


def test_service_memo_reuses_measurements_and_stays_exact():
    """One measurement per (mode, config, samples, costs) serves the
    sweep; a memo hit returns the identical values."""
    memcached.reset_service_memo()
    first = memcached.measure_service(ExecutionMode.BASELINE)
    assert len(memcached._service_memo) == 1
    second = memcached.measure_service(ExecutionMode.BASELINE)
    assert second == first
    assert len(memcached._service_memo) == 1
    memcached.reset_service_memo()
    remeasured = memcached.measure_service(ExecutionMode.BASELINE)
    assert remeasured == first


def test_service_memo_bypassed_under_observation():
    """Observers want the machine events, not a cached pair."""
    from repro.obs.observer import capture_metrics

    memcached.reset_service_memo()
    with capture_metrics():
        memcached.measure_service(ExecutionMode.BASELINE)
    assert len(memcached._service_memo) == 0
    memcached.reset_service_memo()
