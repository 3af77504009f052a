"""repro.obs — zero-dependency observability: spans, metrics, exports.

The paper's argument is a time-accounting one (Table 1's breakdown of a
10.40 us nested cpuid), so the simulator must be able to show *where*
nanoseconds go inside a run.  This package provides:

* :class:`Observer` — the facade a :class:`~repro.core.system.Machine`
  threads through every subsystem (``Machine(observer=Observer())``);
* spans on the simulated clock (`repro.obs.spans`) with a Chrome
  ``trace_event`` exporter (`repro.obs.export`) — one trace "thread"
  per virtualization level, loadable in Perfetto;
* labelled counters and int-ns histograms (`repro.obs.metrics`) with
  deterministic snapshots, shipped per-cell by the parallel experiment
  runner;
* :func:`trace_breakdown` — Table 1 recovered from a trace alone.

Everything is off by default: a machine without an observer runs the
exact pre-observability code path.
"""

from repro.obs.export import (
    charge_totals,
    chrome_trace,
    metrics_document,
    render_breakdown,
    trace_breakdown,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.observer import (
    Observer,
    ambient,
    capture_metrics,
)
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "Span",
    "SpanRecorder",
    "ambient",
    "capture_metrics",
    "charge_totals",
    "chrome_trace",
    "merge_snapshots",
    "metrics_document",
    "render_breakdown",
    "trace_breakdown",
    "write_chrome_trace",
    "write_metrics",
]
