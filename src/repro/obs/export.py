"""Exporters: Chrome ``trace_event`` JSON, metrics dumps, Table-1 text.

The Chrome format (loadable in Perfetto / ``about:tracing``) models the
simulation as one process with one thread per virtualization level:
``tid 0`` is the L0 host hypervisor, ``tid 1`` the L1 guest hypervisor,
``tid 2`` the L2 nested guest, and a final ``machine`` thread carries
level-less spans (wire time, engine events).  Every span becomes one
``"ph": "X"`` complete event; timestamps are microseconds (the format's
unit) derived from the integer-nanosecond simulated clock.

Because charge spans partition the tracer's charged time exactly
(`repro.obs.spans`), :func:`trace_breakdown` recovers the paper's
Table 1 rows from a trace file alone — the acceptance path
``python -m repro run cpuid --trace out.json`` round-trips through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import merge_snapshots
from repro.obs.observer import Observer
from repro.obs.spans import CAT_CHARGE, Span
from repro.sim.trace import Category

#: Chrome pid for the single simulated process.
TRACE_PID = 0

#: tid used for spans with no virtualization level.
MACHINE_TID = 7

#: Thread naming for the per-level "threads".
THREAD_NAMES: Tuple[Tuple[int, str], ...] = (
    (0, "L0 host hypervisor"),
    (1, "L1 guest hypervisor"),
    (2, "L2 nested guest"),
    (MACHINE_TID, "machine (wire/idle/events)"),
)

#: Schema tags for the JSON documents.
METRICS_SCHEMA = "repro-metrics/1"


def _tid(level: Optional[int]) -> int:
    return MACHINE_TID if level is None else level


def chrome_trace(observer: Observer,
                 process_name: str = "repro-sim") -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from recorded spans."""
    if observer.spans is None:
        raise ValueError("observer was built with tracing disabled")
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": TRACE_PID, "tid": 0,
            "name": "process_name", "args": {"name": process_name},
        },
    ]
    events.extend(
        {
            "ph": "M", "pid": TRACE_PID, "tid": tid,
            "name": "thread_name", "args": {"name": label},
        }
        for tid, label in THREAD_NAMES
    )
    for span in observer.spans.finished():
        event: Dict[str, Any] = {
            "ph": "X",
            "pid": TRACE_PID,
            "tid": _tid(span.level),
            "name": span.name,
            "cat": span.cat,
            "ts": span.start_ns / 1000.0,      # Chrome unit: us
            "dur": span.duration_ns / 1000.0,
        }
        if span.args:
            event["args"] = {
                key: span.args[key] for key in sorted(span.args)
            }
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated", "unit_note":
                      "ts/dur are microseconds of simulated time"},
    }


def write_chrome_trace(path: Any, observer: Observer,
                       process_name: str = "repro-sim") -> Dict[str, Any]:
    """Serialize :func:`chrome_trace` to ``path``; returns the doc."""
    doc = chrome_trace(observer, process_name=process_name)
    _write_json(path, doc, indent=1)
    return doc


def _write_json(path: Any, doc: Dict[str, Any], indent: int) -> None:
    """Write ``doc`` to ``path``, creating its parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def metrics_document(snapshots: Iterable[Dict[str, Any]],
                     meta: Optional[Dict[str, Any]] = None) \
        -> Dict[str, Any]:
    """Aggregate snapshots into the flat metrics JSON document."""
    doc: Dict[str, Any] = {"schema": METRICS_SCHEMA}
    doc.update(merge_snapshots(list(snapshots)))
    if meta:
        doc["meta"] = {key: meta[key] for key in sorted(meta)}
    return doc


def write_metrics(path: Any, snapshots: Iterable[Dict[str, Any]],
                  meta: Optional[Dict[str, Any]] = None) \
        -> Dict[str, Any]:
    doc = metrics_document(snapshots, meta=meta)
    _write_json(path, doc, indent=2)
    return doc


# ---------------------------------------------------------------------------
# Table 1 from a trace
# ---------------------------------------------------------------------------

#: Table 1 rows: label plus the charge categories folded into it (the
#: paper folds lazy save/restore into the handler rows).  The one fold
#: definition: :func:`trace_breakdown` and the ``table1`` experiment
#: (:func:`repro.workloads.cpuid.table1_breakdown`) both sum through it.
TABLE1_FOLD: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("0 L2", (Category.GUEST_WORK,)),
    ("1 Switch L2<->L0", (Category.SWITCH_L2_L0,)),
    ("2 Transform vmcs02/vmcs12", (Category.VMCS_TRANSFORM,)),
    ("3 L0 handler", (Category.L0_HANDLER, Category.L0_LAZY_SWITCH)),
    ("4 Switch L0<->L1", (Category.SWITCH_L0_L1,)),
    ("5 L1 handler", (Category.L1_HANDLER, Category.L1_LAZY_SWITCH)),
)


def charge_totals(spans: Iterable[Span]) -> Dict[str, int]:
    """Summed duration (ns) per category over the charge spans."""
    totals: Dict[str, int] = {}
    for span in spans:
        if span.cat != CAT_CHARGE:
            continue
        totals[span.name] = totals.get(span.name, 0) + span.duration_ns
    return dict(sorted(totals.items()))


def charge_totals_from_events(events: Iterable[Dict[str, Any]]) \
        -> Dict[str, float]:
    """Same, from raw ``traceEvents`` dicts (durations back in ns)."""
    totals: Dict[str, float] = {}
    for event in events:
        if event.get("ph") != "X" or event.get("cat") != CAT_CHARGE:
            continue
        totals[event["name"]] = (totals.get(event["name"], 0.0)
                                 + event["dur"] * 1000.0)
    return dict(sorted(totals.items()))


def trace_breakdown(source: Any, operations: int = 1) \
        -> List[Tuple[str, float, float]]:
    """Table 1 rows ``[(label, us, percent)]`` from a live trace.

    ``source`` may be an :class:`Observer`, a span iterable, a Chrome
    trace document (dict with ``traceEvents``) or a path to one on disk.
    """
    if isinstance(source, Observer):
        if source.spans is None:
            raise ValueError("observer was built with tracing disabled")
        totals: Dict[str, float] = dict(charge_totals(
            source.spans.finished()
        ))
    elif isinstance(source, dict):
        totals = charge_totals_from_events(source["traceEvents"])
    elif isinstance(source, (str, bytes)) or hasattr(source, "open") \
            or hasattr(source, "__fspath__"):
        with open(source) as fh:
            totals = charge_totals_from_events(
                json.load(fh)["traceEvents"]
            )
    else:
        totals = dict(charge_totals(source))
    rows = [
        (label, sum(totals.get(cat, 0) for cat in categories)
         / operations)
        for label, categories in TABLE1_FOLD
    ]
    whole = sum(ns for _, ns in rows) or 1
    return [(label, ns / 1000.0, 100.0 * ns / whole)
            for label, ns in rows]


def render_breakdown(rows: List[Tuple[str, float, float]],
                     title: str = "Trace breakdown (Table 1 parts)") \
        -> str:
    """Terminal table for :func:`trace_breakdown` rows."""
    from repro.analysis.report import format_table

    body = [(label, f"{us:.2f}", f"{pct:.2f}")
            for label, us, pct in rows]
    total = sum(us for _, us, _ in rows)
    body.append(("Total", f"{total:.2f}", "100.00"))
    return format_table(["Part", "Time (us)", "Perc. (%)"], body,
                        title=title)
