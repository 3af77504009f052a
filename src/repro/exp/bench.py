"""`repro bench` — the wall-clock perf-regression harness.

Times every registered experiment under each simulation kernel —
``segment`` (the fast path) and ``legacy`` (the per-instruction
reference) — at smoke and/or full parameters.  Each (experiment,
kernel) pair runs its cells serially ``repeats`` times and reports the
**minimum** wall clock (min-of-N filters scheduler noise without
averaging it in), alongside simulation throughput (events fired and
instructions retired per second, via
:func:`repro.sim.kernel.collect_stats`), the segment-compile memo
traffic (:func:`repro.cpu.segments.memo_stats`) and the native
memcached queue loop's calls and fallbacks
(:func:`repro.workloads.native_queue.native_stats`).

The document is written to ``BENCH_sim.json`` at the repo root — the
perf-trajectory artifact every later perf PR is measured against — and
:func:`compare` checks a fresh run against a committed baseline with a
configurable regression threshold, :func:`check_floors` holds every
experiment to ``segment >= legacy``, and :func:`check_native_counts`
requires fig8 to run every load point natively (CI's bench-smoke job
gates on all three).

Wall-clock numbers are machine-dependent by nature; the artifact is a
trajectory on comparable hardware, not a determinism surface.  Nothing
here feeds a :class:`~repro.exp.result.Result`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.cpu import costmodels, segments
from repro.exp import registry
from repro.sim import kernel as simkernel

#: Schema tag of the BENCH_sim.json document.  ``repro-bench/2`` nests
#: per-kernel timings under each experiment (``entry["kernels"]``)
#: instead of v1's segment-plus-legacy columns.
SCHEMA = "repro-bench/2"

#: Default regression threshold: fail when a section/experiment wall
#: clock exceeds the baseline by more than this fraction.
DEFAULT_THRESHOLD = 0.25

#: Noise floor for regression comparison: entries where both current
#: and baseline wall clocks sit under this are pure scheduler jitter
#: (a 3 ms experiment "regressing" by 30% is one cache miss) and are
#: never flagged.
MIN_COMPARE_WALL_S = 0.005

#: Absolute slack for regression comparison: a flagged entry must be
#: slower by at least this many seconds on top of the relative
#: threshold.  Smoke cells run in tens of milliseconds, where a 25%
#: relative excursion is routine scheduler jitter; genuine fast-path
#: breakage (e.g. the segment kernel silently degrading to the legacy
#: cadence) costs hundreds of milliseconds and clears this easily.
MIN_REGRESSION_DELTA_S = 0.05

#: The experiment whose every load point must run in the native queue
#: loop (:func:`check_native_counts`).
NATIVE_EXPERIMENT = "fig8"


def default_bench_path() -> Path:
    """``<repo>/BENCH_sim.json`` next to the installed package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "BENCH_sim.json"


def _resolve_params(experiment: registry.Experiment, smoke: bool,
                    overrides: Optional[Mapping[str, Any]],
                    ) -> dict[str, Any]:
    params = experiment.all_defaults()
    if smoke:
        params.update(experiment.smoke)
    for key, value in (overrides or {}).items():
        if key in params and value is not None:
            params[key] = value
    return params


def _time_cells(experiment: registry.Experiment,
                params: Mapping[str, Any], kernel: str, repeats: int,
                ) -> dict[str, Any]:
    """Min-of-N wall clock for one (experiment, kernel) pair.

    Each cell is timed individually (min over the repeats per cell, so
    the acceptance-level per-cell speedups are visible in the
    artifact); ``wall_s`` is the min over repeats of the summed cell
    walls.  The throughput counters come from the last repeat and are
    deterministic (identical every repeat), unlike the wall clock.

    The per-process memos (segment compile memo, memcached
    service-time memo, native-loop counters) are reset on entry so
    every kernel is timed from the same cold start — the first repeat
    pays any one-off compile/measure cost and min-of-N excludes it
    identically for all kernels — and their traffic over the timed
    repeats is reported in the entry.
    """
    from repro.workloads import memcached, native_queue

    cells = experiment.cells(dict(params))
    wall = float("inf")
    cell_walls = {cell: float("inf") for cell in cells}
    events = 0
    instructions = 0
    segments.reset_memo_stats()
    native_queue.reset_native_stats()
    memcached.reset_service_memo()
    with simkernel.use_kernel(kernel), \
            costmodels.use_default(params.get("cost_model")):
        for _ in range(max(1, repeats)):
            total = 0.0
            with simkernel.collect_stats() as stats:
                for cell in cells:
                    # Wall-clock is the measurement here, not a hidden
                    # nondeterminism: it never reaches a Result.
                    started = time.perf_counter()  # svtlint: disable=SVT001
                    experiment.run_cell(cell, dict(params))
                    took = time.perf_counter() - started  # svtlint: disable=SVT001
                    total += took
                    cell_walls[cell] = min(cell_walls[cell], took)
            wall = min(wall, total)
            events = stats.events_fired
            instructions = stats.instructions
    entry: dict[str, Any] = {
        "wall_s": round(wall, 4),
        "cell_wall_s": {cell: round(took, 4)
                        for cell, took in cell_walls.items()},
        "events": events,
        "events_per_s": round(events / wall) if wall else 0,
        "instructions": instructions,
        "instructions_per_s": (round(instructions / wall)
                               if wall else 0),
        "memo": segments.memo_stats(),
        "native": native_queue.native_stats(),
    }
    return entry


def _ratio(numerator: Optional[float], denominator: Optional[float],
           ) -> Optional[float]:
    if not numerator or not denominator:
        return None
    return round(float(numerator) / float(denominator), 2)


def bench_section(names: Iterable[str], smoke: bool, repeats: int = 3,
                  kernels: Iterable[str] = simkernel.KERNELS,
                  overrides: Optional[Mapping[str, Any]] = None,
                  ) -> dict[str, Any]:
    """One parameter section (smoke or full) of the bench document."""
    kernels = [simkernel.validate(kernel)
               for kernel in dict.fromkeys(kernels)]
    experiments: dict[str, Any] = {}
    totals_by_kernel = {kernel: 0.0 for kernel in kernels}
    for name in sorted(dict.fromkeys(names)):
        experiment = registry.get(name)
        params = _resolve_params(experiment, smoke, overrides)
        by_kernel = {
            kernel: _time_cells(experiment, params, kernel, repeats)
            for kernel in kernels
        }
        for kernel in kernels:
            totals_by_kernel[kernel] += by_kernel[kernel]["wall_s"]
        walls = {kernel: by_kernel[kernel]["wall_s"]
                 for kernel in kernels}
        entry: dict[str, Any] = {
            "cells": len(experiment.cells(params)),
            "kernels": by_kernel,
        }
        speedup = _ratio(walls.get(simkernel.LEGACY),
                         walls.get(simkernel.SEGMENT))
        if speedup is not None:
            entry["speedup"] = speedup
            seg_cells = by_kernel[simkernel.SEGMENT]["cell_wall_s"]
            leg_cells = by_kernel[simkernel.LEGACY]["cell_wall_s"]
            entry["cell_speedup"] = {
                cell: (round(leg_cells[cell] / took, 2) if took
                       else 0.0)
                for cell, took in seg_cells.items()
            }
        experiments[name] = entry
    totals: dict[str, Any] = {
        "wall_s": {kernel: round(total, 4)
                   for kernel, total in totals_by_kernel.items()},
    }
    speedup = _ratio(totals_by_kernel.get(simkernel.LEGACY),
                     totals_by_kernel.get(simkernel.SEGMENT))
    if speedup is not None:
        totals["speedup"] = speedup
    return {"experiments": experiments, "totals": totals}


def bench_document(names: Optional[Iterable[str]] = None,
                   sections: Iterable[str] = ("smoke", "full"),
                   repeats: int = 3,
                   kernels: Optional[Iterable[str]] = None,
                   legacy: bool = True,
                   overrides: Optional[Mapping[str, Any]] = None,
                   ) -> dict[str, Any]:
    """The full ``repro-bench/2`` document.

    ``kernels`` selects the kernel subset to time (default: both);
    ``legacy=False`` is shorthand for dropping the legacy kernel from
    that subset.  ``native_status`` records the native queue loop's
    :func:`~repro.workloads.native_queue.native_status` for the run.
    """
    from repro.workloads import native_queue

    registry.ensure_loaded()
    names = sorted(names or registry.names())
    chosen = list(dict.fromkeys(kernels or simkernel.KERNELS))
    if not legacy:
        chosen = [kernel for kernel in chosen
                  if kernel != simkernel.LEGACY]
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "kernel_version": simkernel.KERNEL_VERSION,
        "repeats": repeats,
        "kernels": [simkernel.validate(kernel) for kernel in chosen],
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "sections": {},
    }
    for section in sections:
        if section not in ("smoke", "full"):
            raise ValueError(f"unknown bench section {section!r}")
        doc["sections"][section] = bench_section(
            names, smoke=(section == "smoke"), repeats=repeats,
            kernels=chosen, overrides=overrides)
    doc["native_status"] = native_queue.native_status()
    return doc


def _entry_walls(entry: Mapping[str, Any]) -> dict[str, float]:
    """Per-kernel walls of a v2 entry (v1 entries map to segment)."""
    kernels = entry.get("kernels")
    if kernels:
        return {kernel: float(timing.get("wall_s", 0.0))
                for kernel, timing in kernels.items()}
    walls = {simkernel.SEGMENT: float(entry.get("wall_s", 0.0))}
    if "legacy_wall_s" in entry:
        walls[simkernel.LEGACY] = float(entry["legacy_wall_s"])
    return walls


def compare(current: Mapping[str, Any], baseline: Mapping[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> list[dict[str, Any]]:
    """Wall-clock regressions of ``current`` versus ``baseline``.

    Compares every (section, experiment, kernel) present in both
    documents; an entry regresses when its wall clock exceeds the
    baseline's by more than ``threshold`` (a fraction) *and* by at
    least :data:`MIN_REGRESSION_DELTA_S` in absolute terms.  Entries
    where both walls are under :data:`MIN_COMPARE_WALL_S` are skipped
    as noise.  Returns the regressions sorted worst-first.
    """
    regressions: list[dict[str, Any]] = []
    base_sections = baseline.get("sections", {})
    for section, payload in current.get("sections", {}).items():
        base_experiments = base_sections.get(section, {}).get(
            "experiments", {})
        for name, entry in payload.get("experiments", {}).items():
            base_entry = base_experiments.get(name)
            if base_entry is None:
                continue
            walls = _entry_walls(entry)
            base_walls = _entry_walls(base_entry)
            for kernel, wall in walls.items():
                base_wall = base_walls.get(kernel, 0.0)
                if base_wall <= 0.0:
                    continue
                if (wall < MIN_COMPARE_WALL_S
                        and base_wall < MIN_COMPARE_WALL_S):
                    continue
                if wall - base_wall < MIN_REGRESSION_DELTA_S:
                    continue
                ratio = wall / base_wall
                if ratio > 1.0 + threshold:
                    regressions.append({
                        "section": section,
                        "experiment": name,
                        "kernel": kernel,
                        "wall_s": wall,
                        "baseline_wall_s": base_wall,
                        "ratio": round(ratio, 3),
                    })
    return sorted(regressions, key=lambda r: -float(r["ratio"]))


def check_floors(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Absolute speedup-floor violations in a bench document.

    No experiment may run slower under the segment kernel than under
    the legacy kernel (speedup >= 1.0 — the compile gate's job),
    applied with :data:`MIN_REGRESSION_DELTA_S` of absolute slack and
    only above the :data:`MIN_COMPARE_WALL_S` noise floor.
    """
    failures: list[dict[str, Any]] = []
    for section, payload in doc.get("sections", {}).items():
        for name, entry in payload.get("experiments", {}).items():
            walls = _entry_walls(entry)
            seg = walls.get(simkernel.SEGMENT)
            leg = walls.get(simkernel.LEGACY)
            if (leg is not None and seg is not None
                    and leg >= MIN_COMPARE_WALL_S
                    and seg > leg + MIN_REGRESSION_DELTA_S):
                failures.append({
                    "section": section, "experiment": name,
                    "bar": "speedup", "floor": 1.0,
                    "reference_wall_s": leg, "wall_s": seg,
                    "ratio": round(leg / seg, 3),
                })
    return failures


def check_native_counts(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Kernels whose :data:`NATIVE_EXPERIMENT` entry did not run every
    load point in the native queue loop.

    The counts are deterministic: each repeat runs one native replay
    per (mode cell, load point) and falls back on none, under every
    kernel.  A failure carries the document's ``native_status``, which
    names why the tier was unavailable.
    """
    from repro.workloads import memcached

    failures: list[dict[str, Any]] = []
    repeats = max(1, int(doc.get("repeats", 1)))
    for section, payload in doc.get("sections", {}).items():
        entry = payload.get("experiments", {}).get(NATIVE_EXPERIMENT)
        if entry is None:
            continue
        expected = (entry["cells"] * len(memcached.DEFAULT_LOADS_KQPS)
                    * repeats)
        for kernel, timing in entry.get("kernels", {}).items():
            native = timing.get("native", {})
            calls = native.get("calls", 0)
            fallbacks = native.get("fallbacks", 0)
            if calls != expected or fallbacks:
                failures.append({
                    "section": section, "experiment": NATIVE_EXPERIMENT,
                    "kernel": kernel, "calls": calls,
                    "expected_calls": expected, "fallbacks": fallbacks,
                    "status": doc.get("native_status", "unknown"),
                })
    return failures


def _fmt_wall(value: Optional[float]) -> str:
    """Wall-clock column: a dash when the kernel was not benched."""
    return "-" if value is None else f"{value:.4f}"


def _fmt_ratio(value: Optional[float]) -> str:
    """Speedup column: a dash when the comparison kernel is absent."""
    return "-" if value is None else f"{value:.2f}x"


def render(doc: Mapping[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    lines: list[str] = []
    status = doc.get("native_status", "unknown")
    for section, payload in doc.get("sections", {}).items():
        lines.append(f"[{section}]")
        header = (f"  {'experiment':<18} {'cells':>5} {'segment_s':>9} "
                  f"{'legacy_s':>9} {'speedup':>8} "
                  f"{'events/s':>12} {'instr/s':>12}")
        lines.append(header)
        for name, entry in sorted(payload["experiments"].items()):
            walls = _entry_walls(entry)
            timing = entry.get("kernels", {}).get(
                simkernel.SEGMENT, entry)
            lines.append(
                f"  {name:<18} {entry['cells']:>5} "
                f"{_fmt_wall(walls.get(simkernel.SEGMENT)):>9} "
                f"{_fmt_wall(walls.get(simkernel.LEGACY)):>9} "
                f"{_fmt_ratio(entry.get('speedup')):>8} "
                f"{timing.get('events_per_s', 0):>12,} "
                f"{timing.get('instructions_per_s', 0):>12,}"
            )
        totals = payload["totals"]
        walls = totals.get("wall_s", {})
        if isinstance(walls, Mapping):
            parts = [f"{walls.get(kernel, 0.0):.2f}s {kernel}"
                     for kernel in simkernel.KERNELS
                     if kernel in walls]
            summary = " vs ".join(parts)
        else:
            summary = f"{float(walls):.2f}s segment"
        speedup = totals.get("speedup")
        lines.append(f"  total: {summary}"
                     + (f"  (speedup {speedup:.2f}x)" if speedup
                        else ""))
        for name, entry in sorted(payload["experiments"].items()):
            for kernel, timing in entry.get("kernels", {}).items():
                memo = timing.get("memo", {})
                native = timing.get("native", {})
                if (native.get("calls") or native.get("fallbacks")
                        or memo.get("wipes")):
                    lines.append(
                        f"  {name}/{kernel}: memo {memo.get('hits', 0)}h"
                        f"/{memo.get('misses', 0)}m"
                        f"/{memo.get('wipes', 0)}w, native "
                        f"{native.get('calls', 0)} call(s), "
                        f"{native.get('fallbacks', 0)} fallback(s) "
                        f"[{status}]"
                    )
    return "\n".join(lines)
