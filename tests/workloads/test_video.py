"""Video workload: Figure 10 shape."""

import pytest

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import video

PAPER = claims.paper("fig10")


@pytest.fixture(scope="module")
def grid():
    """Figure 10's grid at seed 7: ``{fps: {mode: VideoResult}}``."""
    return {fps: {mode: video.run(mode, fps=fps, seed=7)
                  for mode in (ExecutionMode.BASELINE, ExecutionMode.SW_SVT)}
            for fps in (24, 60, 120)}


def test_no_drops_at_24fps(grid):
    assert grid[24][ExecutionMode.BASELINE].dropped \
        == PAPER["dropped_24_baseline"]
    assert grid[24][ExecutionMode.SW_SVT].dropped == PAPER["dropped_24_svt"]


def test_few_drops_at_60fps(grid):
    base = grid[60][ExecutionMode.BASELINE].dropped
    svt = grid[60][ExecutionMode.SW_SVT].dropped
    assert 1 <= base <= 8
    assert svt <= base


def test_drops_at_120fps_near_paper(grid):
    base = grid[120][ExecutionMode.BASELINE].dropped
    svt = grid[120][ExecutionMode.SW_SVT].dropped
    assert base == pytest.approx(PAPER["dropped_120_baseline"], abs=10)
    assert svt == pytest.approx(PAPER["dropped_120_svt"], abs=8)
    assert svt < base
    assert 0.5 <= svt / base <= 0.85


def test_drop_counts_scale_with_fps(grid):
    for mode in (ExecutionMode.BASELINE, ExecutionMode.SW_SVT):
        drops = [grid[fps][mode].dropped for fps in (24, 60, 120)]
        assert drops == sorted(drops)


def test_svt_shortens_bursts():
    base = video.measure_burst_us(ExecutionMode.BASELINE)
    svt = video.measure_burst_us(ExecutionMode.SW_SVT)
    hw = video.measure_burst_us(ExecutionMode.HW_SVT)
    assert hw < svt < base


def test_deterministic_given_seed():
    a = video.run(ExecutionMode.BASELINE, fps=120, seed=5)
    b = video.run(ExecutionMode.BASELINE, fps=120, seed=5)
    assert a.dropped == b.dropped


def test_frame_count():
    result = video.run(ExecutionMode.SW_SVT, fps=24)
    assert result.frames == 24 * 300
