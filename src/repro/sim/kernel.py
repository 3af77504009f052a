"""Fast-path accounting: the *ambient stats* hook.

Inside :func:`collect_stats`, every :class:`~repro.sim.engine.Simulator`
and :class:`~repro.core.system.Machine` constructed registers itself
with the active collector, which can then report totals (events fired,
instructions retired) without the hot paths paying for any bookkeeping
beyond their own counters.  The collector stack is per-process, exactly
like ``repro.obs.observer``'s ambient capture.  No command reads it:
the external benchmark (``perfbench/``) collects it around each op.
"""

from contextlib import contextmanager


class KernelStats:
    """Totals over every simulator/machine built inside a collection.

    Holds strong references to the adopted objects and sums their own
    always-on counters on demand, so the simulator hot paths carry no
    collection-specific branches.
    """

    def __init__(self):
        self._simulators = []
        self._machines = []

    def adopt_simulator(self, sim):
        self._simulators.append(sim)

    def adopt_machine(self, machine):
        self._machines.append(machine)

    @property
    def events_fired(self):
        return sum(sim.events_fired for sim in self._simulators)

    @property
    def instructions(self):
        return sum(m.instructions_retired for m in self._machines)


_COLLECTORS = []


@contextmanager
def collect_stats():
    """Collect fast-path stats from every machine built in the block."""
    stats = KernelStats()
    _COLLECTORS.append(stats)
    try:
        yield stats
    finally:
        _COLLECTORS.pop()


def collecting():
    """Is a collection open in this process?  A machine built in a
    forked child would escape it."""
    return bool(_COLLECTORS)


def adopt_simulator(sim):
    """Called by ``Simulator.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_simulator(sim)


def adopt_machine(machine):
    """Called by ``Machine.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_machine(machine)
