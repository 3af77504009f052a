#!/usr/bin/env python3
"""Soft-realtime playback — the Figure-10 experiment.

Plays five simulated minutes of 4K video at 24/60/120 FPS inside the
nested VM and counts dropped frames with and without SVt.  Also shows
*why* frames drop: the disk-read bursts during which timer interrupts
are delivered late.

Usage::

    python examples/video_playback.py
"""

from repro.analysis.report import render_result
from repro.core.mode import ExecutionMode
from repro.exp import claims, registry
from repro.exp.registry import RunContext
from repro.workloads import video


def main():
    base_burst = video.measure_burst_us(ExecutionMode.BASELINE)
    svt_burst = video.measure_burst_us(ExecutionMode.SW_SVT)
    print("Media-chunk read burst (vCPU saturated with exit handling):")
    print(f"  baseline: {base_burst:7.0f} us")
    print(f"  SW SVt:   {svt_burst:7.0f} us "
          f"({base_burst / svt_burst:.2f}x shorter)\n")

    fig10 = registry.get("fig10")
    result = fig10.run(RunContext.create(fig10.resolve()))
    print(render_result(result))
    dropped = result.scalars_dict
    base120 = dropped["dropped_120_baseline"]
    svt120 = dropped["dropped_120_svt"]
    if base120:
        ratio = claims.paper_value("fig10", "drop_ratio_120")
        print(f"\nAt 120 FPS SVt cuts drops to {svt120 / base120:.2f}x "
              f"(paper: {ratio:.2f}x) — the per-frame slack is only "
              f"{1e6 / 120 * video.VideoConfig().slack_fraction:.0f} us.")


if __name__ == "__main__":
    main()
