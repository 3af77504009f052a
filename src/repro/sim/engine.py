"""Event engine with an integer nanosecond clock.

Two styles of progress coexist:

* *Synchronous* code (hypervisor handlers, guest instruction execution)
  charges elapsed time through :meth:`repro.sim.trace.Tracer.charge`,
  the one charging call.  It bumps this clock itself when the cached
  next deadline proves nothing falls due, and otherwise advances it
  with :meth:`Simulator.advance`.  Any events whose deadline falls
  inside the charged window fire at their exact timestamp, so
  asynchronous arrivals interleave deterministically with synchronous
  execution.
* *Asynchronous* code registers callbacks with :meth:`Simulator.after` or
  :meth:`Simulator.at`; callbacks run with the clock set to their deadline.

Determinism: ties on the timestamp are broken by registration order, and
no wall-clock or global randomness is consulted anywhere.

**Fast path (docs/performance.md).**  The simulator keeps a
conservative-low cache of the earliest scheduled deadline
(``_next_due``) for ``Tracer.charge``'s nothing-due test.  The cache
only ever *under*-estimates the true next live deadline (pushes
min-update it, drains and peeks refresh it from the live heap root, a
cancel leaves it at what may now be a cancelled entry's earlier time),
so a skipped drain can never skip a due event.
:meth:`Simulator.advance` is the slow path: it drains the heap on
every call.  A cancelled entry stays in the heap until it reaches the
root, where a drain or a peek discards it.

**Deadlock/livelock detection.**  Blocking participants announce
themselves with :meth:`Simulator.park` (and :meth:`Simulator.unpark` on
wake-up).  When :meth:`run_until_idle` drains the event queue while
waiters are still parked, nothing left in the simulation can ever wake
them — the §5.3 failure shape — and the engine raises a structured
:class:`repro.errors.DeadlockError` carrying a :class:`DeadlockReport`
that names each waiter, what it waits on, and the wait-for edges.  A
``max_events`` cycle budget turns livelock (events forever rescheduling
themselves without progress) into the same loud report.
"""

import heapq
from dataclasses import dataclass, field

from repro.errors import DeadlockError
from repro.sim import kernel as _kernel
from repro.sim import sanitizer as _san


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. scheduling in the past)."""


@dataclass(frozen=True)
class Waiter:
    """One parked participant registered via :meth:`Simulator.park`."""

    name: str           # who is blocked ("L0_0.hypervisor", ...)
    waits_on: str       # the resource/event it needs ("CMD_VM_RESUME")
    blocked_on: str = ""  # the party expected to provide it ("" unknown)
    since_ns: int = 0   # sim time the wait began

    def to_dict(self):
        return {
            "name": self.name,
            "waits_on": self.waits_on,
            "blocked_on": self.blocked_on,
            "since_ns": self.since_ns,
        }


@dataclass(frozen=True)
class DeadlockReport:
    """Structured account of a detected deadlock or livelock."""

    kind: str                       # "deadlock" | "livelock"
    at_ns: int                      # sim time of detection
    waiters: tuple = ()             # tuple[Waiter], sorted by name
    edges: tuple = ()               # wait-for edges (waiter, blocked_on)
    events_fired: int = 0           # livelock only: budget consumed
    detail: str = ""
    timeline: tuple = field(default_factory=tuple)

    def to_dict(self):
        return {
            "kind": self.kind,
            "at_ns": self.at_ns,
            "waiters": [w.to_dict() for w in self.waiters],
            "edges": [list(edge) for edge in self.edges],
            "events_fired": self.events_fired,
            "detail": self.detail,
        }

    def render(self):
        lines = [f"{self.kind} at t={self.at_ns} ns"]
        if self.detail:
            lines.append(f"  {self.detail}")
        for waiter in self.waiters:
            via = (f" (blocked on {waiter.blocked_on})"
                   if waiter.blocked_on else "")
            lines.append(
                f"  waiter {waiter.name}: waits for {waiter.waits_on}"
                f"{via} since t={waiter.since_ns}"
            )
        for src, dst in self.edges:
            lines.append(f"  wait-for edge: {src} -> {dst}")
        return "\n".join(lines)


class EventHandle:
    """Cancellation token returned by :meth:`Simulator.at`/``after``."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from firing; safe to call repeatedly."""
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event simulator (time unit: nanoseconds)."""

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        # Conservative-low cache of the earliest scheduled deadline:
        # never greater than the true earliest *live* deadline (it may
        # point at a cancelled entry's earlier time, which is harmless),
        # so Tracer.charge may skip the heap whenever target < _next_due.
        self._next_due = None
        # Events fired (summed by repro.sim.kernel.collect_stats).
        self.events_fired = 0
        # Parked waiters (deadlock detection): name -> Waiter.
        self._waiters = {}
        # Observability hook (repro.obs.observer.Observer); None keeps event
        # firing on the exact pre-observability path.
        self.obs = None
        _kernel.adopt_simulator(self)

    def _fire(self, head):
        """Run one due event's callback, optionally under a span."""
        self.events_fired += 1
        if _san.ACTIVE is not None:
            # Event dispatch is serialization by construction: the heap
            # fires strictly in timestamp order, so everything before
            # this fire happens-before the callback's accesses.
            _san.ACTIVE.ordering_event("event-fire")
        obs = self.obs
        if obs is not None and obs.tracing:
            name = getattr(head.callback, "__qualname__",
                           head.callback.__class__.__name__)
            with obs.span(f"event:{name}", t=head.time, seq=head.seq):
                head.callback(*head.args)
        else:
            head.callback(*head.args)

    # -- scheduling ------------------------------------------------------

    def at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute ``time`` ns."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        handle = EventHandle(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, handle)
        if self._next_due is None or time < self._next_due:
            self._next_due = time
        return handle

    def after(self, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, callback, *args)

    # -- time progress ---------------------------------------------------

    def advance(self, ns):
        """Advance the clock by ``ns``, firing events that fall due.

        The slow path of :meth:`repro.sim.trace.Tracer.charge`, which
        calls it only when an event falls due inside the charge or
        ``ns`` is negative.  It drains the heap on every call: events
        fire with ``now`` set to their own deadline, and after the last
        due event the clock lands exactly on the target time.
        """
        if ns < 0:
            raise SimulationError(f"cannot advance by negative time {ns}")
        target = self.now + ns
        queue = self._queue
        while queue:
            head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                continue
            if head.time > target:
                break
            heapq.heappop(queue)
            self.now = head.time
            self._fire(head)
        self.now = target
        self._next_due = queue[0].time if queue else None
        return target

    def run_until_idle(self, limit=None, max_events=None):
        """Fire all pending events in order; stop at ``limit`` ns if given.

        Returns the final simulation time.

        ``max_events`` is a livelock cycle-budget: if more events fire
        than the budget allows, a :class:`repro.errors.DeadlockError`
        with a ``kind="livelock"`` report is raised.  Independently, if
        the queue drains while participants are parked (see
        :meth:`park`), nothing can ever wake them and a
        ``kind="deadlock"`` report is raised.
        """
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if limit is not None and head.time > limit:
                break
            if max_events is not None and fired >= max_events:
                raise DeadlockError(
                    f"livelock: cycle budget of {max_events} events "
                    f"exhausted at t={self.now}",
                    report=self.deadlock_report("livelock",
                                                events_fired=fired),
                )
            heapq.heappop(self._queue)
            self.now = head.time
            self._fire(head)
            fired += 1
        queue = self._queue
        self._next_due = queue[0].time if queue else None
        if limit is not None and limit > self.now:
            self.now = limit
        if not self._queue and self._waiters:
            # The queue drained for real (not a limit stop) with parked
            # waiters: no remaining event can ever wake them.
            report = self.deadlock_report("deadlock", events_fired=fired)
            raise DeadlockError(
                "deadlock: event queue drained with "
                f"{len(self._waiters)} parked waiter(s): "
                + ", ".join(sorted(self._waiters)),
                report=report,
            )
        return self.now

    # -- deadlock detection ----------------------------------------------

    def park(self, name, waits_on, blocked_on=""):
        """Register a blocked participant for deadlock detection.

        ``name`` identifies the waiter; ``waits_on`` names the event or
        resource it needs; ``blocked_on`` (optional) names the party
        expected to provide it, yielding a wait-for edge in the report.
        Re-parking the same name replaces the previous registration.
        """
        self._waiters[name] = Waiter(name=name, waits_on=waits_on,
                                     blocked_on=blocked_on,
                                     since_ns=self.now)

    def unpark(self, name):
        """Remove a parked waiter (no-op when not parked)."""
        self._waiters.pop(name, None)

    @property
    def parked(self):
        """Sorted names of currently parked waiters."""
        return sorted(self._waiters)

    def deadlock_report(self, kind="deadlock", events_fired=0, detail=""):
        """Build a :class:`DeadlockReport` from the current waiter set."""
        waiters = tuple(self._waiters[name]
                        for name in sorted(self._waiters))
        edges = tuple((w.name, w.blocked_on) for w in waiters
                      if w.blocked_on)
        return DeadlockReport(kind=kind, at_ns=self.now, waiters=waiters,
                              edges=edges, events_fired=events_fired,
                              detail=detail)

    def peek_next_time(self):
        """Timestamp of the earliest pending event, or ``None``."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            self._next_due = None
            return None
        self._next_due = self._queue[0].time
        return self._next_due
