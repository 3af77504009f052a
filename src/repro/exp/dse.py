"""`repro dse` — design-space exploration over SVt cost parameters.

Sweeps the design parameters the paper leaves open — context-switch
cost, mwait wake latency, stall/resume hardware cost, channel cache-line
placement — across every registered cost model, and reports where the
three systems (BASELINE / SW SVt / HW SVt) cross over.

The driver is cheap by construction: it *simulates* each base model's
three modes exactly once (:func:`repro.analysis.replay.record_cpuid`)
and then re-prices those recordings under every sweep point
(:func:`repro.analysis.replay.reprice`), which is pure integer
arithmetic — a few hundred design points cost milliseconds, not
simulations.  Replay-vs-direct parity is pinned exactly by
``tests/analysis/test_replay.py``.

Like ``repro bench`` and ``repro chaos``, this is a standalone driver,
**not** a registered experiment: its output is a design-space artifact
(``results/dse_frontier.json``, schema ``repro-dse/1``), not a paper
claim, so it stays out of ``repro all`` and the experiment registry.

The artifact is deterministic: the workload is fixed, replay arithmetic
is integral, and speedups are rounded decimals — so the committed copy
is byte-stable and CI's dse-smoke job can regenerate and validate it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.cli import positive_int
from repro.core.mode import ExecutionMode
from repro.cpu import costmodels
from repro.errors import ConfigError
from repro.exp.result import canonical_json

#: Schema tag of the dse_frontier.json document.
SCHEMA = "repro-dse/1"

#: Context-switch scale axis, in tenths (integer cost arithmetic):
#: 5 -> half the base model's switch/lazy costs, 40 -> 4x.
SCALE_TENTHS = (5, 10, 20, 40)

#: mwait C1-exit wake latency axis, ns (paper §5.2 measures 60).
MWAIT_WAKE = (30, 60, 120, 240)

#: HW stall/resume event cost axis, ns.  The paper (§4) argues ~20;
#: the high end asks how slow the hardware event may get before HW SVt
#: forfeits its advantage (a nested cpuid pays four per trap).
STALL_RESUME = (10, 20, 80, 320, 1280)

#: SVt-thread placement axis (paper §6.1's three distances).
PLACEMENTS = ("smt", "core", "numa")

#: The smoke grid: one point per axis extreme, two base models.
SMOKE = {
    "models": ("xeon-paper", "fast-switch"),
    "scale_tenths": (10, 40),
    "mwait_wake": (60,),
    "stall_resume": (20, 1280),
    "placements": ("smt", "numa"),
}

#: Cost-model fields scaled by the switch axis — every constant the
#: paper's methodology (§6) counts as context switching.
_SWITCH_FIELDS = (
    "switch_l2_l0",
    "switch_l0_l1",
    "l0_lazy_switch",
    "l1_lazy_switch",
    "l0_lazy_direct",
    "l0_single_lazy",
)

_MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT,
          ExecutionMode.HW_SVT)


def _scaled(base: Any, tenths: int, mwait_wake: int,
            stall_resume: int) -> Any:
    """A sweep-point variant of ``base`` (plain ``with_overrides`` —
    the point is an unregistered perturbation, not a named model)."""
    overrides: dict[str, int] = {
        name: getattr(base, name) * tenths // 10
        for name in _SWITCH_FIELDS
    }
    overrides["mwait_wake"] = mwait_wake
    overrides["svt_stall_resume"] = stall_resume
    return base.with_overrides(**overrides)


def _record_base(model_name: str, iterations: int) -> dict[str, Any]:
    """Simulate the three modes once under ``model_name``."""
    from repro.analysis import replay

    return {
        mode: replay.record_cpuid(mode=mode, iterations=iterations,
                                  costs=model_name)
        for mode in _MODES
    }


def sweep(models: Sequence[str], scale_tenths: Sequence[int],
          mwait_wake: Sequence[int], stall_resume: Sequence[int],
          placements: Sequence[str],
          iterations: int = 50) -> list[dict[str, Any]]:
    """All design points: reprice each base recording per grid cell."""
    from repro.analysis import replay

    points: list[dict[str, Any]] = []
    for model_name in models:
        base = costmodels.get_model(model_name)
        traces = _record_base(model_name, iterations)
        for tenths in scale_tenths:
            for wake in mwait_wake:
                for stall in stall_resume:
                    target = _scaled(base, tenths, wake, stall)
                    for placement in placements:
                        ns = {
                            mode: replay.reprice(
                                traces[mode], target,
                                placement=placement,
                            ).total_ns() // iterations
                            for mode in _MODES
                        }
                        ranking = sorted(ns, key=lambda m: (ns[m], m))
                        points.append({
                            "model": model_name,
                            "switch_scale_tenths": tenths,
                            "mwait_wake": wake,
                            "svt_stall_resume": stall,
                            "placement": placement,
                            "ns_per_op": dict(ns),
                            "ranking": ">".join(ranking),
                            "sw_speedup": round(
                                ns[ExecutionMode.BASELINE]
                                / ns[ExecutionMode.SW_SVT], 4),
                            "hw_speedup": round(
                                ns[ExecutionMode.BASELINE]
                                / ns[ExecutionMode.HW_SVT], 4),
                            "winner": ranking[0],
                        })
    return points


def _frontier(points: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Ranking transitions along the switch-scale axis.

    For each (model, mwait, stall, placement) series ordered by
    increasing switch cost, record where the BASELINE/SW/HW *ordering*
    changes — not just the winner, so an SW-vs-BASELINE flip behind a
    leading HW SVt still registers (the numa-placement series are the
    canonical case: the channel's cross-socket hops outprice the very
    switches they replace until the switch axis scales up).  A series
    that never re-ranks contributes one entry with an empty
    ``crossovers`` list, so consumers can tell "stable" from "not
    swept".
    """
    series: dict[tuple[Any, ...], list[Mapping[str, Any]]] = {}
    for point in points:
        key = (point["model"], point["mwait_wake"],
               point["svt_stall_resume"], point["placement"])
        series.setdefault(key, []).append(point)

    frontier: list[dict[str, Any]] = []
    for key in sorted(series):
        ordered = sorted(series[key],
                         key=lambda p: p["switch_scale_tenths"])
        crossovers: list[dict[str, Any]] = []
        for before, after in zip(ordered, ordered[1:]):
            if before["ranking"] != after["ranking"]:
                crossovers.append({
                    "at_scale_tenths": after["switch_scale_tenths"],
                    "from": before["ranking"],
                    "to": after["ranking"],
                })
        model, wake, stall, placement = key
        frontier.append({
            "model": model,
            "mwait_wake": wake,
            "svt_stall_resume": stall,
            "placement": placement,
            "rankings": [p["ranking"] for p in ordered],
            "crossovers": crossovers,
        })
    return frontier


def build_document(models: Sequence[str],
                   scale_tenths: Sequence[int] = SCALE_TENTHS,
                   mwait_wake: Sequence[int] = MWAIT_WAKE,
                   stall_resume: Sequence[int] = STALL_RESUME,
                   placements: Sequence[str] = PLACEMENTS,
                   iterations: int = 50) -> dict[str, Any]:
    """The full ``repro-dse/1`` document for one sweep."""
    points = sweep(models, scale_tenths, mwait_wake, stall_resume,
                   placements, iterations=iterations)
    winners: dict[str, int] = {mode: 0 for mode in _MODES}
    for point in points:
        winners[point["winner"]] += 1
    return {
        "schema": SCHEMA,
        "workload": {"kind": "cpuid", "level": 2,
                     "iterations": iterations},
        "models": sorted(models),
        "axes": {
            "switch_scale_tenths": list(scale_tenths),
            "mwait_wake": list(mwait_wake),
            "svt_stall_resume": list(stall_resume),
            "placement": list(placements),
        },
        "points": points,
        "frontier": _frontier(points),
        "summary": {
            "n_points": len(points),
            "wins": winners,
        },
    }


def validate_document(doc: Mapping[str, Any]) -> None:
    """Schema check used by tests and CI's dse-smoke job."""
    if doc.get("schema") != SCHEMA:
        raise ConfigError(
            f"dse document schema {doc.get('schema')!r} != {SCHEMA!r}")
    for section in ("workload", "models", "axes", "points", "frontier",
                    "summary"):
        if section not in doc:
            raise ConfigError(f"dse document missing {section!r}")
    if not doc["points"]:
        raise ConfigError("dse document has no design points")
    point_keys = {"model", "switch_scale_tenths", "mwait_wake",
                  "svt_stall_resume", "placement", "ns_per_op",
                  "ranking", "sw_speedup", "hw_speedup", "winner"}
    for point in doc["points"]:
        missing = point_keys - set(point)
        if missing:
            raise ConfigError(f"dse point missing {sorted(missing)}")
        if set(point["ns_per_op"]) != set(_MODES):
            raise ConfigError("dse point prices wrong mode set")
        if point["winner"] not in _MODES:
            raise ConfigError(f"unknown winner {point['winner']!r}")
    if doc["summary"]["n_points"] != len(doc["points"]):
        raise ConfigError("dse summary point count mismatch")


def default_out_path() -> Path:
    """``<repo>/results/dse_frontier.json`` next to the package."""
    import repro

    root = Path(repro.__file__).resolve().parents[2]
    return root / "results" / "dse_frontier.json"


def render(doc: Mapping[str, Any]) -> str:
    """Terminal summary: wins per system plus each crossover found."""
    lines = [
        "repro dse — SVt design-space sweep "
        f"({doc['summary']['n_points']} points, "
        f"models: {', '.join(doc['models'])})",
        "",
        "wins per system (lowest ns/op):",
    ]
    for mode in _MODES:
        lines.append(f"  {mode:10s} {doc['summary']['wins'][mode]:5d}")
    crossed = [entry for entry in doc["frontier"] if entry["crossovers"]]
    lines.append("")
    lines.append(f"crossovers along the switch-cost axis "
                 f"({len(crossed)} of {len(doc['frontier'])} series):")
    for entry in crossed:
        for crossover in entry["crossovers"]:
            lines.append(
                f"  {entry['model']:14s} placement={entry['placement']:5s}"
                f" mwait={entry['mwait_wake']:4d}"
                f" stall={entry['svt_stall_resume']:4d}"
                f" at scale {crossover['at_scale_tenths']/10:.1f}x:"
                f" {crossover['from']} -> {crossover['to']}"
            )
    if not crossed:
        lines.append("  (none in this grid)")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dse",
        description="sweep SVt design parameters by re-pricing recorded "
                    "traces; write the crossover frontier artifact",
    )
    parser.add_argument("--models", nargs="+", metavar="NAME",
                        choices=costmodels.model_names(),
                        help="base cost models to sweep "
                             "(default: every registered model)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI (two models, axis "
                             "extremes only)")
    parser.add_argument("--iterations", type=positive_int, default=None,
                        help="recorded cpuid iterations per mode "
                             "(default 50)")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact path (default "
                             "results/dse_frontier.json; '-' skips "
                             "writing; required when --smoke, --models "
                             "or --iterations narrows the run)")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical JSON document to "
                             "stdout instead of the summary")
    args = parser.parse_args(argv)
    grid: dict[str, Any] = dict(SMOKE) if args.smoke else {}
    if args.iterations is not None:
        grid["iterations"] = args.iterations
    if (grid or args.models) and args.out is None:
        # A narrowed sweep must never replace the committed frontier.
        parser.error("a narrowed run (--smoke, --models or --iterations) "
                     "needs --out")
    grid["models"] = list(args.models or grid.get("models")
                          or costmodels.model_names())
    doc = build_document(**grid)
    validate_document(doc)

    out = default_out_path() if args.out is None else args.out
    if str(out) != "-":
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(canonical_json(doc))
    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(render(doc))
        if str(out) != "-":
            sys.stdout.write(f"\nwrote {out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
