"""TSan-style runtime ordering sanitizer for shared sim state.

SVT007 (:mod:`repro.lint.races`) proves the *static* half of the
paper's cross-context discipline; this module checks it *dynamically*.
Behind ``REPRO_SIM_SANITIZE=1``, the shared-state classes
(``HardwareContext``, ``Vmcs``, ``CommandRing``) report every read and
write here, tagged with the current simulated-context label (L0 / L1 /
L2 / svt-thread — maintained by the nested stack and the SMT core's
context switches).  Happens-before edges come from exactly the three
orderings the paper allows:

* **sim-clock advances** — two accesses at different timestamps are
  ordered; the access table resets whenever the observed clock moves;
* **channel pushes/pops** — a ring operation is a synchronization
  point (:meth:`Sanitizer.ordering_event`), clearing the table;
* **context switches** — ``SmtCore._switch_fetch`` and the nested
  stack's reflection windows both bump the ordering epoch and update
  the context label.

Anything left — two accesses to the same ``(owner, field)`` with no
edge between them, from *different* context labels, at least one a
write — is a conflicting unordered access and becomes a
:class:`Report`, carrying the open :mod:`repro.obs` span stack when
tracing is on so the violation is attributed to a specific
exit-handling phase.

Disabled (the default), the instrumentation is a single module-global
``is None`` test per access — the same zero-overhead idiom the
observer layer uses — and Results are byte-identical with the flag on
or off because the sanitizer only ever *observes*.
"""

import os
from dataclasses import dataclass

#: The opt-in environment flag.
ENV_FLAG = "REPRO_SIM_SANITIZE"

#: Reports kept per process; beyond this only the count grows.
MAX_REPORTS = 200

#: The installed :class:`Sanitizer` (or ``None`` — the fast path).
ACTIVE = None

#: Process-wide report log; survives machine rebuilds so a runner can
#: collect per-cell with :func:`drain`.
REPORTS = []

#: Total conflicts seen (including ones dropped past MAX_REPORTS).
_TOTAL = 0


@dataclass(frozen=True)
class Access:
    """One recorded shared-state access."""

    context: str        # simulated context label ("L0", "L2", ...)
    op: str             # "r" or "w"
    site: str           # instrumentation site, e.g. "Vmcs.write"
    time_ns: int        # sim clock at the access
    epoch: int          # ordering epoch at the access
    spans: tuple        # open obs span names, outermost first

    def render(self):
        spans = "/".join(self.spans) if self.spans else "-"
        return (f"{self.context} {self.op}@{self.site} "
                f"[t={self.time_ns}ns epoch={self.epoch} "
                f"spans={spans}]")


@dataclass(frozen=True)
class Report:
    """One conflicting unordered access pair."""

    owner: str
    field: str
    first: Access
    second: Access

    def render(self):
        return (f"svt-sanitize: conflicting unordered access to "
                f"{self.owner}.{self.field}: {self.first.render()} "
                f"vs {self.second.render()}")


class Sanitizer:
    """Happens-before checker over shared-state access streams.

    ``clock`` is a zero-argument callable returning the sim clock in
    ns (``lambda: sim.now``); ``obs`` an optional
    :class:`repro.obs.observer.Observer` consulted for span context.
    """

    def __init__(self, clock, obs=None):
        self._clock = clock
        self.obs = obs
        self.context_label = "L0"
        self._epoch = 0
        self._last_now = -1
        # (owner, field) -> accesses since the last happens-before
        # edge.  Cleared wholesale on clock movement and ordering
        # events, so membership alone means "unordered against".
        self._cells = {}

    # -- happens-before edges --------------------------------------------

    def set_context(self, label):
        """The simulation is now executing as ``label``."""
        self.context_label = label

    def ordering_event(self, kind=""):
        """A sanctioned ordering point: channel op or context switch."""
        self._epoch += 1
        self._cells.clear()

    # -- access recording ------------------------------------------------

    def record(self, owner, field, op, site):
        """Record one access; emit a report on an unordered conflict."""
        now = self._clock()
        if now != self._last_now:
            self._last_now = now
            self._epoch += 1
            self._cells.clear()
        spans = ()
        if self.obs is not None and self.obs.tracing:
            spans = self.obs.spans.open_span_names()
        access = Access(context=self.context_label, op=op, site=site,
                        time_ns=now, epoch=self._epoch, spans=spans)
        key = (owner, field)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = [access]
            return
        for previous in cell:
            if (previous.context != access.context
                    and (previous.op == "w" or op == "w")):
                _emit(Report(owner=owner, field=field,
                             first=previous, second=access))
        for previous in cell:
            if previous.context == access.context and previous.op == op:
                return  # already represented; bound cell growth
        cell.append(access)


def _emit(report):
    global _TOTAL
    _TOTAL += 1
    if len(REPORTS) < MAX_REPORTS:
        REPORTS.append(report)


def enabled():
    """Is ``REPRO_SIM_SANITIZE=1`` set for this process?"""
    # Diagnostic-only ambient read: the flag gates pure observation
    # and cannot alter Results (asserted by the differential test).
    # svtlint: disable=SVT001 — sanitizer opt-in flag, observation only
    return os.environ.get(ENV_FLAG, "") == "1"


def maybe_install(clock, obs=None):
    """Install a fresh :class:`Sanitizer` when the env flag is set.

    Called by ``Machine.__init__``; one machine is live at a time per
    process (cells run machines sequentially), so the newest install
    wins.  Returns the active sanitizer or ``None``.
    """
    global ACTIVE
    ACTIVE = Sanitizer(clock, obs) if enabled() else None
    return ACTIVE


def reports():
    """Reports accumulated in this process (capped at MAX_REPORTS)."""
    return list(REPORTS)


def total():
    """Total conflicts seen, including any past the report cap."""
    return _TOTAL


def drain():
    """Return and clear the accumulated reports (per-cell collection)."""
    global _TOTAL
    out = list(REPORTS)
    REPORTS.clear()
    _TOTAL = 0
    return out
