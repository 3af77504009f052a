"""`repro bench` — the wall-clock perf-regression harness.

Times every registered experiment at smoke and/or full parameters.
Each experiment runs its cells serially ``repeats`` times and reports
the **minimum** wall clock (min-of-N filters scheduler noise without
averaging it in), alongside simulation throughput (events fired and
instructions retired per second, via
:func:`repro.sim.kernel.collect_stats`), the segment-compile memo
traffic (:func:`repro.cpu.segments.memo_stats`) and the native
memcached queue loop's calls and fallbacks
(:func:`repro.workloads.native_queue.native_stats`).

The document is written to ``BENCH_sim.json`` at the repo root — the
perf-trajectory artifact every later perf PR is measured against — and
:func:`compare` checks a fresh run against a committed baseline with a
configurable regression threshold, while :func:`check_native_counts`
requires fig8 to run every load point natively (CI's bench-smoke job
gates on both).

Wall-clock numbers are machine-dependent by nature; the artifact is a
trajectory on comparable hardware, not a determinism surface.  Nothing
here feeds a :class:`~repro.exp.result.Result`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.cpu import costmodels, segments
from repro.exp import registry
from repro.sim import kernel as simkernel

#: Schema tag of the BENCH_sim.json document: one flat timing entry
#: per experiment.  A baseline of any other schema is refused.
SCHEMA = "repro-bench/3"

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
#: breakage (e.g. fig8 silently degrading to the Python queue loop)
#: costs hundreds of milliseconds and clears this easily.
MIN_REGRESSION_DELTA_S = 0.05

#: The experiment whose every load point must run in the native queue
#: loop (:func:`check_native_counts`).
NATIVE_EXPERIMENT = "fig8"


def default_bench_path() -> Path:
    """``<repo>/BENCH_sim.json`` next to the installed package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "BENCH_sim.json"


def _time_cells(experiment: registry.Experiment,
                params: Mapping[str, Any], repeats: int,
                ) -> dict[str, Any]:
    """Min-of-N wall clock for one experiment.

    Each cell is timed individually (min over the repeats per cell);
    ``wall_s`` is the min over repeats of the summed cell walls.  The
    throughput counters come from the last repeat and are deterministic
    (identical every repeat), unlike the wall clock.

    The per-process memos (segment compile memo, memcached
    service-time memo, native-loop counters) are reset on entry so
    every experiment is timed from the same cold start — the first
    repeat pays any one-off compile/measure cost and min-of-N excludes
    it — and their traffic over the timed repeats is reported in the
    entry.
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
    with costmodels.use_default(params.get("cost_model")):
        for _ in range(max(1, repeats)):
            total = 0.0
            with simkernel.collect_stats() as stats:
                for cell in cells:
                    # Wall-clock is the measurement here, not a hidden
                    # nondeterminism: it never reaches a Result.
                    started = time.perf_counter()  # svtlint: disable=SVT001
                    experiment.run_cell(cell, dict(params))
                    # svtlint: disable=SVT001
                    took = time.perf_counter() - started
                    total += took
                    cell_walls[cell] = min(cell_walls[cell], took)
            wall = min(wall, total)
            events = stats.events_fired
            instructions = stats.instructions
    return {
        "cells": len(cells),
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


def bench_section(names: Iterable[str], smoke: bool, repeats: int = 3,
                  overrides: Optional[Mapping[str, Any]] = None,
                  ) -> dict[str, Any]:
    """One parameter section (smoke or full) of the bench document."""
    experiments: dict[str, Any] = {}
    for name in sorted(dict.fromkeys(names)):
        experiment = registry.get(name)
        params = experiment.resolve(overrides, smoke=smoke)
        experiments[name] = _time_cells(experiment, params, repeats)
    total = sum(entry["wall_s"] for entry in experiments.values())
    return {"experiments": experiments,
            "totals": {"wall_s": round(total, 4)}}


def bench_document(names: Optional[Iterable[str]] = None,
                   sections: Iterable[str] = ("smoke", "full"),
                   repeats: int = 3,
                   overrides: Optional[Mapping[str, Any]] = None,
                   ) -> dict[str, Any]:
    """The full ``repro-bench/3`` document.

    ``native_status`` records the native queue loop's
    :func:`~repro.workloads.native_queue.native_status` for the run.
    """
    from repro.workloads import native_queue

    registry.ensure_loaded()
    names = sorted(names or registry.names())
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "repeats": repeats,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "sections": {},
    }
    for section in sections:
        if section not in ("smoke", "full"):
            raise ValueError(f"unknown bench section {section!r}")
        doc["sections"][section] = bench_section(
            names, smoke=(section == "smoke"), repeats=repeats,
            overrides=overrides)
    doc["native_status"] = native_queue.native_status()
    return doc


def load_baseline(path: Path) -> tuple[Optional[dict[str, Any]], str]:
    """The ``repro-bench/3`` document at ``path``, or ``None`` and the
    reason it cannot serve as a baseline."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return None, "no such file"
    except OSError as err:
        return None, f"unreadable ({err.strerror or err})"
    except ValueError as err:
        return None, f"not JSON ({err})"
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        return None, f"schema {schema!r}, not {SCHEMA!r}"
    return doc, ""


def compare(current: Mapping[str, Any], baseline: Mapping[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> list[dict[str, Any]]:
    """Wall-clock regressions of ``current`` versus ``baseline``.

    Compares every (section, experiment) present in both documents; an
    entry regresses when its wall clock exceeds the baseline's by more
    than ``threshold`` (a fraction) *and* by at least
    :data:`MIN_REGRESSION_DELTA_S` in absolute terms.  Entries where
    both walls are under :data:`MIN_COMPARE_WALL_S` are skipped as
    noise.  Returns the regressions sorted worst-first.
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
            wall = float(entry.get("wall_s", 0.0))
            base_wall = float(base_entry.get("wall_s", 0.0))
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
                    "wall_s": wall,
                    "baseline_wall_s": base_wall,
                    "ratio": round(ratio, 3),
                })
    return sorted(regressions, key=lambda r: -float(r["ratio"]))


def check_native_counts(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Sections whose :data:`NATIVE_EXPERIMENT` entry did not run every
    load point in the native queue loop.

    The counts are deterministic: each repeat runs one native replay
    per (mode cell, load point) and falls back on none.  A failure
    carries the document's ``native_status``, which names why the tier
    was unavailable.
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
        native = entry.get("native", {})
        calls = native.get("calls", 0)
        fallbacks = native.get("fallbacks", 0)
        if calls != expected or fallbacks:
            failures.append({
                "section": section, "experiment": NATIVE_EXPERIMENT,
                "calls": calls, "expected_calls": expected,
                "fallbacks": fallbacks,
                "status": doc.get("native_status", "unknown"),
            })
    return failures


def render(doc: Mapping[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    lines: list[str] = []
    status = doc.get("native_status", "unknown")
    for section, payload in doc.get("sections", {}).items():
        lines.append(f"[{section}]")
        lines.append(f"  {'experiment':<18} {'cells':>5} {'wall_s':>9} "
                     f"{'events/s':>12} {'instr/s':>12}")
        experiments = sorted(payload["experiments"].items())
        for name, entry in experiments:
            lines.append(
                f"  {name:<18} {entry['cells']:>5} "
                f"{entry['wall_s']:>9.4f} "
                f"{entry.get('events_per_s', 0):>12,} "
                f"{entry.get('instructions_per_s', 0):>12,}"
            )
        lines.append(f"  total: {payload['totals']['wall_s']:.2f}s")
        for name, entry in experiments:
            memo = entry.get("memo", {})
            native = entry.get("native", {})
            if (native.get("calls") or native.get("fallbacks")
                    or memo.get("wipes")):
                lines.append(
                    f"  {name}: memo {memo.get('hits', 0)}h"
                    f"/{memo.get('misses', 0)}m"
                    f"/{memo.get('wipes', 0)}w, native "
                    f"{native.get('calls', 0)} call(s), "
                    f"{native.get('fallbacks', 0)} fallback(s) "
                    f"[{status}]"
                )
    return "\n".join(lines)
