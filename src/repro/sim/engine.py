"""Event engine with an integer nanosecond clock.

Two styles of progress coexist:

* *Synchronous* code (hypervisor handlers, guest instruction execution)
  charges elapsed time through :meth:`repro.sim.trace.Tracer.charge`,
  the one charging call, which advances this clock with
  :meth:`Simulator.charge`.  Any events whose deadline falls inside the
  charged window fire at their exact timestamp, so asynchronous
  arrivals interleave deterministically with synchronous execution.
* *Asynchronous* code registers callbacks with :meth:`Simulator.after` or
  :meth:`Simulator.at`; callbacks run with the clock set to their deadline.

Determinism: ties on the timestamp are broken by registration order, and
no wall-clock or global randomness is consulted anywhere.

**Fast path (docs/performance.md).**  :meth:`Simulator.advance` is the
drain-on-every-call reference for :meth:`Simulator.charge`, kept only
for the charge ≡ advance property test.  ``charge`` keeps a
conservative-low cache of the earliest scheduled deadline
(``_next_due``) and, while the charge target stays below it, bumps the
clock without touching the heap at all.  The cache only ever
*under*-estimates the true next live deadline (pushes min-update it,
pops refresh it from the heap root, which may be a cancelled entry at
an earlier time), so a skipped drain can never skip a due event.
Fired and cancelled handles are recycled through a bounded freelist —
but only when their refcount proves no outside alias survives that
could later ``cancel()`` the reincarnated event — and the heap is
compacted inside :meth:`at` once cancelled entries outnumber live ones
(watchdog retry timers would otherwise leak dead handles forever).

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
from sys import getrefcount

from repro.errors import DeadlockError
from repro.sim import kernel as _kernel
from repro.sim import sanitizer as _san

#: Freelist bound: enough to absorb timer churn, small enough that a
#: pathological cancel storm cannot pin memory.
_FREELIST_MAX = 256

#: Minimum number of cancelled entries before ``at`` considers
#: compacting — avoids heapify thrash on tiny queues.
_COMPACT_MIN = 8


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

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner")

    def __init__(self, time, seq, callback, args, owner=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner

    def cancel(self):
        """Prevent the callback from firing; safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            # Keep the owning simulator's live-event counter exact; an
            # already-fired event has detached itself (owner is None).
            if self._owner is not None:
                self._owner._pending -= 1
                self._owner._dead += 1
                self._owner = None

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
        self._pending = 0
        self._firing = False
        # Conservative-low cache of the earliest scheduled deadline:
        # never greater than the true earliest *live* deadline (it may
        # point at a cancelled entry's earlier time, which is harmless),
        # so `charge` may skip the heap whenever target < _next_due.
        self._next_due = None
        # Cancelled entries still sitting in the heap; compaction in
        # `at` keeps this below the live count.
        self._dead = 0
        # Recycled EventHandle slots (bounded; see _recycle).
        self._freelist = []
        # Fast-path accounting (repro.sim.kernel / `repro bench`).
        self.events_fired = 0
        self.compactions = 0
        # Parked waiters (deadlock detection): name -> Waiter.
        self._waiters = {}
        # Observability hook (repro.obs.Observer); None keeps event
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
        if self._dead >= _COMPACT_MIN and self._dead > self._pending:
            self._compact()
        free = self._freelist
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = self._seq
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
            handle._owner = self
        else:
            handle = EventHandle(time, self._seq, callback, args,
                                 owner=self)
        self._seq += 1
        self._pending += 1
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

        The reference for :meth:`charge`: it peeks the heap on every
        call.  Events fire with ``now`` set to their own deadline; after
        the last due event the clock lands exactly on the target time.
        """
        if ns < 0:
            raise SimulationError(f"cannot advance by negative time {ns}")
        target = self.now + ns
        self._drain(target)
        self.now = target
        queue = self._queue
        self._next_due = queue[0].time if queue else None
        return target

    def charge(self, ns):
        """Fast-path :meth:`advance`: identical semantics, lazy heap.

        While the target stays strictly below the cached next deadline
        no event can fall due, so the clock bumps without a heap peek;
        otherwise the call flushes through the same :meth:`_drain` as
        ``advance`` and every due event fires at its exact timestamp.
        Synchronous machine code reaches it through
        :meth:`repro.sim.trace.Tracer.charge`.
        """
        if ns < 0:
            raise SimulationError(f"cannot advance by negative time {ns}")
        target = self.now + ns
        due = self._next_due
        if due is None or due > target:
            self.now = target
            return target
        self._drain(target)
        self.now = target
        queue = self._queue
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
        target = limit if limit is not None else None
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                self._dead -= 1
                self._recycle(head)
                continue
            if target is not None and head.time > target:
                break
            if max_events is not None and fired >= max_events:
                raise DeadlockError(
                    f"livelock: cycle budget of {max_events} events "
                    f"exhausted at t={self.now}",
                    report=self.deadlock_report("livelock",
                                                events_fired=fired),
                )
            heapq.heappop(self._queue)
            self._pending -= 1
            head._owner = None
            self.now = head.time
            self._fire(head)
            self._recycle(head)
            fired += 1
        queue = self._queue
        self._next_due = queue[0].time if queue else None
        if target is not None and target > self.now:
            self.now = target
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
            head = heapq.heappop(self._queue)
            self._dead -= 1
            self._recycle(head)
        if not self._queue:
            self._next_due = None
            return None
        self._next_due = self._queue[0].time
        return self._next_due

    @property
    def pending(self):
        """Number of non-cancelled scheduled events.

        O(1): a live counter maintained by :meth:`at`,
        :meth:`EventHandle.cancel` and the firing paths — this sits on
        the hot path of long runs (devices poll it between bursts), so
        it must not scan the heap.
        """
        return self._pending

    # -- internals -------------------------------------------------------

    def _drain(self, target):
        """Fire every non-cancelled event with deadline <= target."""
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                self._dead -= 1
                self._recycle(head)
                continue
            if head.time > target:
                break
            heapq.heappop(self._queue)
            self._pending -= 1
            head._owner = None
            self.now = head.time
            self._fire(head)
            self._recycle(head)

    def _recycle(self, handle, extra=0):
        """Return a dead (fired or cancelled) handle to the freelist.

        Only when its refcount proves no alias survives outside the
        caller: the caller's local, this parameter binding and
        ``getrefcount``'s own argument account for 3 references
        (``extra`` covers a caller-side container still holding it).
        Any additional reference means external code could still call
        ``cancel()`` on the handle after reuse — which would corrupt an
        unrelated future event — so such handles are simply dropped.
        Recycling never perturbs ordering: ``seq`` comes from the
        monotonic global counter regardless of the allocation path.
        """
        free = self._freelist
        if len(free) >= _FREELIST_MAX or getrefcount(handle) > 3 + extra:
            return
        handle.callback = None
        handle.args = ()
        handle._owner = None
        free.append(handle)

    def _compact(self):
        """Rebuild the heap without cancelled entries (satellite of the
        fast-path work: watchdog retry timers cancel in bulk and used to
        leave their handles in ``_queue`` until their deadline passed).
        """
        queue = self._queue
        live = []
        for handle in queue:
            if handle.cancelled:
                self._recycle(handle, extra=1)
            else:
                live.append(handle)
        heapq.heapify(live)
        self._queue = live
        self._dead = 0
        self._next_due = live[0].time if live else None
        self.compactions += 1
