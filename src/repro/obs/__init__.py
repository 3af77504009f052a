"""repro.obs — zero-dependency observability: spans, metrics, exports.

The paper's argument is a time-accounting one (Table 1's breakdown of a
10.40 us nested cpuid), so the simulator must be able to show *where*
nanoseconds go inside a run.  This package provides:

* :class:`~repro.obs.observer.Observer` — the facade a
  :class:`~repro.core.system.Machine` threads through every subsystem
  (``Machine(observer=Observer())``);
* spans on the simulated clock (`repro.obs.spans`) with a Chrome
  ``trace_event`` exporter (`repro.obs.export`) — one trace "thread"
  per virtualization level, loadable in Perfetto;
* labelled counters and int-ns histograms (`repro.obs.metrics`) with
  deterministic snapshots, shipped per-cell by the parallel experiment
  runner;
* :func:`~repro.obs.export.trace_breakdown` — Table 1 recovered from a
  trace alone.

Everything is off by default: a machine without an observer runs the
exact pre-observability code path.
"""
