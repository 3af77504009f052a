"""Span recording on the simulated clock.

A *span* is a named interval of simulated time — ``[start_ns, end_ns]``
on the discrete-event engine's integer nanosecond clock, never wall
clock, so recorded traces are bit-identical across runs and machines
(SVT001-clean by construction).  Spans nest: the recorder keeps an open
stack, and every finished span remembers its depth and the virtualization
level it executed at, which becomes its "thread" in the Chrome trace
export (`repro.obs.export`).

Two producers exist:

* **structural spans** — opened/closed around control-flow landmarks
  (``l2_exit``, ``l1_handler``, ``aux_exit``, ``vhost_tx``, ...) by the
  wired subsystems;
* **charge spans** — emitted by :meth:`repro.sim.trace.Tracer.charge`
  for every nanosecond charged to a category, as the interval
  ``[now - ns, now]`` (the simulator advances *before* the charge is
  recorded, so that window is exactly the charged time).  Summing charge
  spans per category therefore reproduces the tracer's totals — and
  Table 1 — exactly.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

#: Span category tags (the Chrome ``cat`` field).
CAT_STRUCT = "struct"
CAT_CHARGE = "charge"
CAT_EVENT = "event"


class Span:
    """One finished (or still-open) interval of simulated time."""

    __slots__ = ("name", "cat", "level", "start_ns", "end_ns",
                 "depth", "args")

    def __init__(self, name: str, cat: str, level: Optional[int],
                 start_ns: int, end_ns: Optional[int], depth: int,
                 args: Optional[dict]) -> None:
        self.name = name
        self.cat = cat
        self.level = level
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.depth = depth
        self.args = args

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} still open")
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:
        end = "open" if self.end_ns is None else self.end_ns
        return (f"Span({self.name!r}, cat={self.cat}, L{self.level}, "
                f"[{self.start_ns}, {end}])")


class SpanRecorder:
    """Accumulates spans against a simulated-clock callable.

    ``clock`` returns the current simulation time in integer
    nanoseconds; the recorder never consults anything else, so two runs
    of the same deterministic simulation produce identical span lists.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    # -- structural spans ------------------------------------------------

    def begin(self, name: str, level: Optional[int] = None,
              cat: str = CAT_STRUCT, **args: Any) -> Span:
        """Open a span at the current simulated time."""
        span = Span(name, cat, level, self.clock(), None,
                    len(self._stack), args or None)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span (and any younger spans left open above it)."""
        while self._stack:
            top = self._stack.pop()
            top.end_ns = self.clock()
            self.spans.append(top)
            if top is span:
                return span
        raise ValueError(f"span {span.name!r} is not open")

    # -- pre-timed spans -------------------------------------------------

    def emit(self, name: str, start_ns: int, end_ns: int,
             level: Optional[int] = None, cat: str = CAT_CHARGE,
             **args: Any) -> Span:
        """Record an already-finished interval (charge spans)."""
        span = Span(name, cat, level, start_ns, end_ns,
                    len(self._stack), args or None)
        self.spans.append(span)
        return span

    # -- views -----------------------------------------------------------

    def open_span_names(self) -> tuple:
        """Names of the currently open spans, outermost first — the
        attribution context the runtime sanitizer attaches to reports."""
        return tuple(span.name for span in self._stack)

    def finished(self) -> List[Span]:
        """Finished spans in deterministic order: by start time, then
        outermost first (ties broken by recording order, which is itself
        deterministic)."""
        indexed = list(enumerate(self.spans))
        indexed.sort(key=lambda pair: (pair[1].start_ns, pair[1].depth,
                                       pair[0]))
        return [span for _, span in indexed]
