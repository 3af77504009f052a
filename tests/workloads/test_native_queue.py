"""The native memcached queue loop: bit-identical to the Python fast
path, engaged by workload shape, and never a silent or unsafe
fallback."""

import json
import math
import os
from pathlib import Path

import pytest

from repro.exp.result import canonical_json
from repro.exp.runner import run_experiments
from repro.sim.rng import DeterministicRng
from repro.workloads import memcached, native_queue

GOLDEN = (Path(__file__).resolve().parents[1] / "golden"
          / "experiments.json")

CFG = memcached.EtcConfig()


@pytest.fixture
def fresh_probe():
    """A tier probed afresh inside the test, and again after it."""
    native_queue.reset_native_probe()
    try:
        yield
    finally:
        native_queue.reset_native_probe()


def _needs_native():
    if native_queue.native_status() != native_queue.OK:
        pytest.skip(f"no native tier: {native_queue.native_status()}")


def test_native_kernel_builds_and_passes_self_check(fresh_probe):
    """The CI image has a C compiler; the tier must come up (if this
    fails, fig8 silently runs at Python speed)."""
    assert native_queue.native_status() == native_queue.OK


def test_native_env_gate_forces_fallback(monkeypatch, fresh_probe,
                                         capsys):
    monkeypatch.setenv(native_queue.NATIVE_ENV_VAR, "0")
    assert native_queue.native_status() == native_queue.DISABLED
    assert native_queue.queue_replay(30_000.0, 52_000.0, 10.0, CFG,
                                     DeterministicRng(7), 100) is None
    # The explicit switch is not worth a warning.
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("requests", [1, 2, 100, 500, 3000, 6000])
def test_queue_replay_matches_fast_path_bitwise(requests):
    """(avg, p99) and the final generator state, across seeds, loads
    and service times; 1 and 2 requests put the p99 rank on the order
    statistics' edges."""
    _needs_native()
    for seed in (1, 20190613):
        for load in (5.0, 12.5, 22.5):
            for get_ns, set_ns in ((127_360.0, 160_000.0),
                                   (30_000.0, 52_000.0)):
                fast_rng = DeterministicRng(seed).fork(f"n:{load}")
                native_rng = DeterministicRng(seed).fork(f"n:{load}")
                expected = memcached._queueing_run_fast(
                    get_ns, set_ns, load, CFG, fast_rng, requests)
                assert native_queue.queue_replay(
                    get_ns, set_ns, load, CFG, native_rng,
                    requests) == expected
                assert native_rng.getstate() == fast_rng.getstate()


def test_queue_replay_state_resumes_python_stream():
    """Draws after a native replay continue the stream bit-for-bit."""
    _needs_native()
    native = DeterministicRng(99)
    pure = DeterministicRng(99)
    native_queue.queue_replay(30_000.0, 52_000.0, 12.5, CFG, native, 500)
    # Drive the pure rng through the same draws by replaying manually.
    nv_magic = 4 * math.exp(-0.5) / math.sqrt(2.0)
    stream = pure.raw_stream()
    for _ in range(500):
        stream()  # arrival
        stream()  # GET or SET
        stream()  # key popularity
        while True:
            u1 = stream()
            u2 = 1.0 - stream()
            z = nv_magic * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
    assert [native.random() for _ in range(16)] \
        == [pure.random() for _ in range(16)]


def test_default_path_engages_native_tier():
    """One native replay per load point: dispatch depends on shape
    only."""
    want = {"calls": len(memcached.DEFAULT_LOADS_KQPS), "fallbacks": 0}
    native_queue.reset_native_stats()
    memcached.run(requests=2_000)
    assert native_queue.native_stats() == want, \
        native_queue.native_status()


def _one_ulp_higher_p99(real, get_ns, set_ns, load, cfg, rng, requests):
    avg, p99 = real(get_ns, set_ns, load, cfg, rng, requests)
    return avg, math.nextafter(p99, math.inf)


def _one_draw_further(real, get_ns, set_ns, load, cfg, rng, requests):
    outcome = real(get_ns, set_ns, load, cfg, rng, requests)
    rng.random()
    return outcome


@pytest.mark.parametrize("perturb", [_one_ulp_higher_p99,
                                     _one_draw_further])
def test_self_check_mismatch_disables_tier(monkeypatch, fresh_probe,
                                           capsys, perturb):
    """A result one ulp off, or a generator left one draw further on,
    fails the self-check; dispatch then runs the real fast path."""
    real = memcached._queueing_run_fast

    def perturbed(*args):
        return perturb(real, *args)

    with monkeypatch.context() as patch:
        patch.setattr(memcached, "_queueing_run_fast", perturbed)
        assert (native_queue.native_status()
                == native_queue.SELF_CHECK_MISMATCH)
    native_queue.reset_native_stats()
    dispatched = memcached._queueing_run(
        30_000.0, 52_000.0, 12.5, CFG, DeterministicRng(11),
        requests=3_000)
    assert dispatched == real(30_000.0, 52_000.0, 12.5, CFG,
                              DeterministicRng(11), requests=3_000)
    assert native_queue.native_stats() == {"calls": 0, "fallbacks": 1}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and native_queue.SELF_CHECK_MISMATCH in err[0]


def test_unsafe_cache_dir_is_declined(monkeypatch, tmp_path,
                                      fresh_probe, capsys):
    """A cache anyone can write may hold a planted library: the tier
    declines it before building or loading, warns once on stderr, and
    fig8's document stays the golden one."""
    cache = tmp_path / "shared"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setenv(native_queue.CACHE_ENV_VAR, str(cache))
    assert native_queue.native_status() == native_queue.UNSAFE_CACHE_DIR
    report = run_experiments(["fig8"], cache=None)
    golden = json.loads(GOLDEN.read_text())["fig8"]
    assert (canonical_json(report.runs[0].result.to_dict())
            == canonical_json(golden))
    assert os.listdir(cache) == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and native_queue.UNSAFE_CACHE_DIR in err[0]


def test_cache_dir_is_created_private(monkeypatch, tmp_path,
                                      fresh_probe):
    cache = tmp_path / "fresh" / "cache"
    monkeypatch.setenv(native_queue.CACHE_ENV_VAR, str(cache))
    status = native_queue.native_status()
    if status == native_queue.NO_COMPILER:
        pytest.skip("no C compiler")
    assert status == native_queue.OK
    assert cache.stat().st_mode & 0o777 == 0o700
