"""SW SVt shared-memory command rings (paper §5.2 / Figure 5).

When L0 starts an L1 guest hypervisor it creates, per vCPU, *"two shared
memory buffers ... each buffer is a unidirectional command ring that will
be used to communicate VM trap and resume events regarding the L2 guest
VM"*.  L0 pushes ``CMD_VM_TRAP`` onto the request ring; the SVt-thread in
L1 answers with ``CMD_VM_RESUME`` on the response ring.  Because neither
side has SVt's cross-thread register access, *"SW SVt sends the necessary
information together with the commands"* — general-purpose register
values and the VM trap identifier ride in the payload.

Robustness (see ``docs/robustness.md``):

* **Timestamps** ride the *simulated* clock: rings stamp
  ``Command.enqueued_at`` from an attached ``clock`` when the caller
  does not pass ``now``, so ring-latency metrics and fault delays are
  measured against sim time, never against a hard-coded 0.
* **Backpressure**: :meth:`CommandRing.try_push` is the caller-visible
  non-raising push; a full ring returns ``False`` (counted in
  ``overflows``) so the watchdog layer can back off and retry instead
  of dying on :class:`~repro.errors.ChannelError`.
* **Fault injection**: a ring built with a
  :class:`~repro.faults.injector.FaultInjector` may drop, duplicate,
  delay (head-of-line, ``visible_at``) or corrupt a pushed command, or
  lose the consumer's wakeup.  Commands are *sealed* at push time: the
  seal is a private deep snapshot of the payload, and the receiver's
  :meth:`Command.verify` requires the payload to still equal it, so any
  change to any value at any depth is detected.  Commands also carry an
  exchange id (``xid``) so retransmissions and duplicates deduplicate.
"""

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ChannelError
from repro.faults.plan import FaultKind
from repro.sim import sanitizer as _san


class CommandKind:
    VM_TRAP = "CMD_VM_TRAP"
    VM_RESUME = "CMD_VM_RESUME"
    BLOCKED = "CMD_SVT_BLOCKED"   # §5.3 notification variant

    ALL = (VM_TRAP, VM_RESUME, BLOCKED)


#: Immutable value types a snapshot shares with the payload.
_SCALARS = frozenset({bool, int, float, complex, str, bytes, type(None)})


def _snapshot(value):
    """A copy of ``value`` that shares no mutable container with it.

    Dicts, lists, tuples and sets are copied at every depth.  Scalars
    and any other object are shared, so such an object compares by its
    own ``==`` (identity, unless its class defines equality).
    """
    if isinstance(value, dict):
        return {key: item if type(item) in _SCALARS else _snapshot(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_snapshot(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_snapshot(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    return value


@dataclass
class Command:
    """One ring entry: a command plus its register/exit-info payload."""

    kind: str
    payload: dict = field(default_factory=dict)
    seq: int = 0
    enqueued_at: int = 0
    #: Exchange id: retransmissions of one logical command share it, so
    #: receivers can discard duplicates.  -1 = unassigned.
    xid: int = -1
    #: Sim time before which the command is invisible (delay faults).
    visible_at: int = 0
    #: Deep snapshot of the payload taken at push time (None = unsealed).
    _sealed: object = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.kind not in CommandKind.ALL:
            raise ChannelError(f"unknown command kind {self.kind!r}")

    def seal(self):
        """Snapshot the payload (the producer's end-to-end seal)."""
        self._sealed = _snapshot(self.payload)

    def verify(self):
        """True when the payload still equals its seal at every depth."""
        return self.payload == self._sealed


class CommandRing:
    """A bounded unidirectional command ring in shared memory.

    ``clock`` is a zero-argument callable returning simulated ns; when
    attached, pushes without an explicit ``now`` stamp the real sim
    time and delayed entries become visible as the clock advances.
    ``faults`` is an optional :class:`repro.faults.injector.FaultInjector`.
    """

    def __init__(self, name, capacity=64, placement="smt", clock=None,
                 faults=None):
        if capacity < 1:
            raise ChannelError("ring capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.placement = placement
        self.clock = clock
        self.faults = faults
        self._entries = deque()
        self._seq = itertools.count()
        self._wakeup_lost = False
        self.pushed = 0
        self.popped = 0
        self.max_occupancy = 0
        # -- fault/backpressure counters ----------------------------------
        self.overflows = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.corrupted = 0
        self.wakeups_lost = 0
        self.dups_discarded = 0
        self.corrupt_discarded = 0

    def _now(self, now):
        if now is not None:
            return now
        return self.clock() if self.clock is not None else 0

    def try_push(self, command, now=None):
        """Non-raising push: ``False`` when the ring is full.

        The backpressure path of SW SVt under load — callers (the
        switch engine's watchdog) back off on ``False`` and retry
        instead of crashing on :class:`~repro.errors.ChannelError`.
        """
        if len(self._entries) >= self.capacity:
            self.overflows += 1
            return False
        if _san.ACTIVE is not None:
            # A ring push is a sanctioned synchronization point: it
            # orders every shared-state access before it against every
            # access after the matching pop.
            _san.ACTIVE.ordering_event("ring-push")
        now = self._now(now)
        command.seq = next(self._seq)
        command.enqueued_at = now
        command.seal()
        kind = (self.faults.ring_fault(self.name)
                if self.faults is not None else None)
        if kind == FaultKind.RING_DROP:
            # Lost on the wire: the producer believes it pushed.
            self.dropped += 1
            return True
        if kind == FaultKind.RING_CORRUPT:
            # Damage after sealing, so the receiver's verify() fails.
            self.faults.corrupt_payload(command.payload, self.name)
            self.corrupted += 1
        elif kind == FaultKind.RING_DELAY:
            command.visible_at = now + self.faults.delay_ns()
            self.delayed += 1
        elif kind == FaultKind.LOST_WAKEUP:
            self._wakeup_lost = True
            self.wakeups_lost += 1
        self._entries.append(command)
        self.pushed += 1
        self.max_occupancy = max(self.max_occupancy, len(self._entries))
        if kind == FaultKind.RING_DUPLICATE:
            # The slot is replayed: same command, same seq/xid twice.
            self._entries.append(command)
            self.pushed += 1
            self.duplicated += 1
            self.max_occupancy = max(self.max_occupancy,
                                     len(self._entries))
        return True

    def push(self, command, now=None):
        """Raising push (legacy protocol path); see :meth:`try_push`."""
        if not self.try_push(command, now=now):
            raise ChannelError(f"ring {self.name} full")
        return command.seq

    def pop(self):
        if self._wakeup_lost:
            # The entry is in shared memory but the waiter's mwait wake
            # was lost: from the consumer's view, nothing arrived.  The
            # watchdog's next look (after backoff) finds it.
            self._wakeup_lost = False
            raise ChannelError(f"ring {self.name} wakeup lost")
        if not self._entries:
            raise ChannelError(f"ring {self.name} empty")
        head = self._entries[0]
        if head.visible_at > self._now(None):
            raise ChannelError(
                f"ring {self.name} empty "
                f"(head delayed until t={head.visible_at})"
            )
        if _san.ACTIVE is not None:
            _san.ACTIVE.ordering_event("ring-pop")
        self.popped += 1
        return self._entries.popleft()

    def check_invariants(self):
        if self.popped > self.pushed:
            raise AssertionError("popped more commands than pushed")
        if self.pushed - self.popped != len(self._entries):
            raise AssertionError("occupancy out of sync with counters")


class PairedChannels:
    """The per-vCPU request/response ring pair with protocol checking.

    Enforces the SW SVt alternation: every ``CMD_VM_TRAP`` must be
    answered by exactly one ``CMD_VM_RESUME`` before the next trap is
    sent (the hypervisor thread blocks on the response — paper Figure 5).
    ``CMD_SVT_BLOCKED`` responses (§5.3) do *not* complete the exchange;
    they let L0 service interrupts and go back to waiting.

    Retransmissions (:meth:`resend_trap` / :meth:`resend_resume`) reuse
    the in-flight exchange id, and :meth:`take_request` /
    :meth:`take_response` silently discard entries whose ``xid`` was
    already consumed — the dedup that makes watchdog retries and
    duplicate faults idempotent.
    """

    def __init__(self, vcpu_name, capacity=64, placement="smt", obs=None,
                 clock=None, faults=None):
        self.request = CommandRing(
            f"{vcpu_name}.req", capacity=capacity, placement=placement,
            clock=clock, faults=faults,
        )
        self.response = CommandRing(
            f"{vcpu_name}.rsp", capacity=capacity, placement=placement,
            clock=clock, faults=faults,
        )
        self.in_flight = 0
        self.round_trips = 0
        self.retransmissions = 0
        self.obs = obs
        self.clock = clock
        self._xids = itertools.count()
        self._trap_xid = -1
        self._resume_xid = -1
        self._last_request_xid = -1
        self._last_response_xid = -1

    def _count(self, kind):
        if self.obs is not None:
            self.obs.count("channel_commands_total", kind=kind)

    def _observe_latency(self, ring, command):
        if self.obs is not None and self.clock is not None:
            self.obs.observe(
                "ring_latency_ns",
                max(0, self.clock() - command.enqueued_at),
                ring=ring.name,
            )

    # -- producer side ----------------------------------------------------

    def send_trap(self, payload, now=None):
        if self.in_flight:
            raise ChannelError("previous VM trap not yet resumed")
        if not self.try_send_trap(payload, now=now):
            raise ChannelError(f"ring {self.request.name} full")
        return self._trap_xid

    def try_send_trap(self, payload, now=None):
        """Backpressure-aware trap send: ``False`` when the ring is
        full (no state is consumed; retry after backing off)."""
        if self.in_flight:
            raise ChannelError("previous VM trap not yet resumed")
        # Shallow-copy so a corruption fault damages only the in-ring
        # copy, never the producer's own payload (needed for resends).
        command = Command(CommandKind.VM_TRAP, dict(payload))
        command.xid = next(self._xids)
        if not self.request.try_push(command, now=now):
            return False
        self.in_flight += 1
        self._trap_xid = command.xid
        self._count(CommandKind.VM_TRAP)
        return True

    def resend_trap(self, payload, now=None):
        """Retransmit the in-flight trap (same exchange id)."""
        if not self.in_flight:
            raise ChannelError("no in-flight trap to retransmit")
        command = Command(CommandKind.VM_TRAP, dict(payload))
        command.xid = self._trap_xid
        pushed = self.request.try_push(command, now=now)
        if pushed:
            self.retransmissions += 1
            self._count(CommandKind.VM_TRAP)
        return pushed

    def send_resume(self, payload, now=None):
        if not self.try_send_resume(payload, now=now):
            raise ChannelError(f"ring {self.response.name} full")
        return self._resume_xid

    def try_send_resume(self, payload, now=None):
        """Backpressure-aware resume send (see :meth:`try_send_trap`)."""
        if not self.in_flight:
            raise ChannelError("VM resume without an outstanding trap")
        command = Command(CommandKind.VM_RESUME, dict(payload))
        command.xid = next(self._xids)
        if not self.response.try_push(command, now=now):
            return False
        self._resume_xid = command.xid
        self._count(CommandKind.VM_RESUME)
        return True

    def resend_resume(self, payload, now=None):
        """Retransmit the in-flight resume (same exchange id)."""
        if not self.in_flight:
            raise ChannelError("no outstanding trap to re-answer")
        if self._resume_xid < 0:
            raise ChannelError("no resume sent yet to retransmit")
        command = Command(CommandKind.VM_RESUME, dict(payload))
        command.xid = self._resume_xid
        pushed = self.response.try_push(command, now=now)
        if pushed:
            self.retransmissions += 1
            self._count(CommandKind.VM_RESUME)
        return pushed

    # -- consumer side ----------------------------------------------------

    def take_request(self):
        # svtlint: disable=SVT005 — bounded: every iteration pops one
        # entry off a finite ring; an empty ring raises ChannelError.
        while True:
            command = self.request.pop()
            if not command.verify():
                # Damaged in the ring: discard *before* committing its
                # xid, so a retransmission with the same xid is
                # accepted.  The caller sees "nothing arrived".
                self.request.corrupt_discarded += 1
                continue
            if 0 <= command.xid <= self._last_request_xid:
                # Duplicate slot or stale retransmission twin.
                self.request.dups_discarded += 1
                continue
            self._last_request_xid = max(self._last_request_xid,
                                         command.xid)
            self._observe_latency(self.request, command)
            return command

    def take_response(self):
        # svtlint: disable=SVT005 — bounded: every iteration pops one
        # entry off a finite ring; an empty ring raises ChannelError.
        while True:
            command = self.response.pop()
            if not command.verify():
                self.response.corrupt_discarded += 1
                continue
            if (command.kind == CommandKind.VM_RESUME
                    and 0 <= command.xid <= self._last_response_xid):
                self.response.dups_discarded += 1
                continue
            break
        self._observe_latency(self.response, command)
        if command.kind == CommandKind.VM_RESUME:
            self._last_response_xid = max(self._last_response_xid,
                                          command.xid)
            self.in_flight -= 1
            self.round_trips += 1
            self._resume_xid = -1
        else:
            # BLOCKED notifications (§5.3) are pushed onto the response
            # ring directly; count them when they surface.
            self._count(command.kind)
        return command

    def check_invariants(self):
        self.request.check_invariants()
        self.response.check_invariants()
        if self.in_flight not in (0, 1):
            raise AssertionError(f"in_flight={self.in_flight} out of range")
