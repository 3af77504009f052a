"""The :class:`Observer` facade — one object the whole stack reports to.

A machine owns at most one observer; every wired subsystem (event
engine, nested stack, switch engines, SMT core, interrupt controller,
virtio devices, command rings) holds a reference and guards each report
with ``if obs is not None`` so the **disabled path stays free**: a
machine built without an observer executes exactly the pre-observability
code, and the cpuid fast-path benchmark pins that property.

Two recording planes, independently switchable:

* ``tracing`` — spans on the simulated clock (`repro.obs.spans`),
  exported as a Chrome ``trace_event`` file;
* ``metrics`` — labelled counters/histograms (`repro.obs.metrics`),
  exported as a flat JSON document and shipped per-cell by the parallel
  experiment runner.

**Ambient capture** lets the runner collect metrics from machines it
never constructs: ``with capture_metrics() as obs: ...`` installs an
observer that any :class:`~repro.core.system.Machine` built inside the
block adopts automatically.  The capture stack is per-process state —
each forked helper owns its copy, and snapshots travel back through
cell payload plumbing, so parallel runs stay deterministic.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import CAT_CHARGE, Span, SpanRecorder
from repro.sim.trace import Category

#: Which virtualization level a charge category's time belongs to —
#: the "thread" its charge spans land on in the Chrome export.  ``None``
#: means the machine-level thread (wire time, idle).
CATEGORY_LEVEL: Dict[str, Optional[int]] = {
    Category.GUEST_WORK: 2,
    Category.SWITCH_L2_L0: 0,
    Category.VMCS_TRANSFORM: 0,
    Category.L0_HANDLER: 0,
    Category.L0_LAZY_SWITCH: 0,
    Category.SWITCH_L0_L1: 0,
    Category.L1_HANDLER: 1,
    Category.L1_LAZY_SWITCH: 1,
    Category.STALL_RESUME: 0,
    Category.CHANNEL: 0,
    Category.CROSS_CONTEXT: 0,
    Category.INTERRUPT: 0,
    Category.WATCHDOG: 0,
    Category.IO_DEVICE: 1,
    Category.IO_WIRE: None,
    Category.IDLE: None,
}


class _NullSpan:
    """Shared no-op context manager for the disabled-tracing path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that closes its span on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: SpanRecorder, span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        self._recorder.end(self._span)
        return False


class Observer:
    """Span + metrics sink bound to one simulator clock."""

    __slots__ = ("_sim", "spans", "metrics")

    def __init__(self, sim: Any = None, tracing: bool = True,
                 metrics: bool = True) -> None:
        self._sim = sim
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(self.now) if tracing else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )

    # -- clock -----------------------------------------------------------

    def now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def bind(self, sim: Any) -> "Observer":
        """Attach to a simulator's clock (the machine does this)."""
        self._sim = sim
        return self

    @property
    def tracing(self) -> bool:
        return self.spans is not None

    # -- spans -----------------------------------------------------------

    def span(self, name: str, level: Optional[int] = None,
             **args: Any) -> Any:
        """Structural span context manager (no-op when not tracing)."""
        if self.spans is None:
            return _NULL_SPAN
        return _SpanContext(self.spans,
                            self.spans.begin(name, level=level, **args))

    def charge(self, category: str, ns: int) -> None:
        """A tracer charge: emit the interval ``[now - ns, now]`` as a
        charge span (the simulator advanced before recording)."""
        if self.spans is None:
            return
        level = CATEGORY_LEVEL.get(category)
        now = self.now()
        self.spans.emit(category, now - ns, now, level=level,
                        cat=CAT_CHARGE)

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n, **labels)

    def observe(self, name: str, value: int, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    def metrics_snapshot(self) -> Dict[str, Any]:
        if self.metrics is None:
            return {"counters": {}, "histograms": {}}
        return self.metrics.snapshot()


# ---------------------------------------------------------------------------
# Ambient capture (per-process; each forked helper owns its own stack)
# ---------------------------------------------------------------------------

_AMBIENT: List[Observer] = []


def ambient() -> Optional[Observer]:
    """The innermost active capture observer, if any."""
    return _AMBIENT[-1] if _AMBIENT else None


@contextmanager
def capture_metrics() -> Iterator[Observer]:
    """Install a metrics-only observer that machines built inside the
    block adopt.  Used by the experiment runner for per-cell capture."""
    observer = Observer(tracing=False, metrics=True)
    _AMBIENT.append(observer)
    try:
        yield observer
    finally:
        _AMBIENT.pop()
