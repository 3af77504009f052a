"""Simulation-kernel selection and fast-path accounting.

Two kernels execute the same simulation (see ``docs/performance.md``):

* ``segment`` (default) — the fast path: machines charge time through
  :meth:`repro.sim.engine.Simulator.charge` (lazy clock, heap skipped
  while no event is due) and replay compiled instruction segments
  (:mod:`repro.cpu.segments`) instead of dispatching the interpreter
  per instruction.
* ``legacy`` — the original per-instruction path, kept behind this flag
  so the differential test (and any bisection of a determinism bug) can
  run every experiment through both and compare fingerprints.

The kernel is selected per *process* through the ``REPRO_SIM_KERNEL``
environment variable, so ``--jobs N`` pool workers (fork or spawn)
inherit the choice and results stay byte-identical at any job count.

:data:`KERNEL_VERSION` names the engine generation; the result cache
folds it into every key so results computed by a pre-segment engine can
never be served after an engine change (see ``repro.exp.cache``).

This module also hosts the *ambient stats* hook the bench harness uses:
inside :func:`collect_stats`, every :class:`~repro.sim.engine.Simulator`
and :class:`~repro.core.system.Machine` constructed registers itself
with the active collector, which can then report totals (events fired,
instructions retired) without the hot paths paying for any bookkeeping
beyond their own counters.  The collector stack is per-process, exactly
like ``repro.obs.observer``'s ambient capture.
"""

import os
from contextlib import contextmanager

from repro.errors import ConfigError

#: The fast path: batched charging + segment replay (the default).
SEGMENT = "segment"
#: The original per-instruction path, for differential runs.
LEGACY = "legacy"

KERNELS = (SEGMENT, LEGACY)

#: Environment variable that selects the kernel for this process.
ENV_VAR = "REPRO_SIM_KERNEL"

#: Engine generation tag — bump on any change to charging/replay
#: semantics; the result cache keys on it (stale-engine safety).
#: fastpath-2: the batchable-count compile gate
#: (COMPILE_MIN_INSTRUCTIONS retuned).
KERNEL_VERSION = "fastpath-2"


def validate(name):
    """Normalise and check a kernel name."""
    value = str(name).strip().lower()
    if value not in KERNELS:
        raise ConfigError(
            f"unknown simulation kernel {name!r} "
            f"(choose one of {', '.join(KERNELS)})"
        )
    return value


def active_kernel():
    """The kernel selected for this process (default: ``segment``)."""
    # svtlint: disable=SVT001 — the environment is exactly how the
    # kernel choice must travel: pool workers (fork or spawn) inherit
    # it, so every cell of a --jobs run executes the same kernel and
    # both kernels produce byte-identical results by construction.
    return validate(os.environ.get(ENV_VAR, SEGMENT))


def kernel_tag():
    """Cache-key material: engine generation plus the active kernel."""
    return f"{KERNEL_VERSION}:{active_kernel()}"


@contextmanager
def use_kernel(name):
    """Select a kernel for the duration of the block.

    Implemented through the environment (not a module global) so worker
    processes started inside the block — the ``--jobs`` pool — see the
    same kernel as the parent.
    """
    value = validate(name)
    # svtlint: disable=SVT001 — see active_kernel: the environment is
    # the deliberate, worker-inherited channel for kernel selection;
    # results are byte-identical under either kernel.
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = value  # svtlint: disable=SVT001 — as above
    try:
        yield value
    finally:
        if previous is None:
            # svtlint: disable=SVT001 — as above
            os.environ.pop(ENV_VAR, None)
        else:
            # svtlint: disable=SVT001 — as above
            os.environ[ENV_VAR] = previous


# ---------------------------------------------------------------------------
# Ambient fast-path stats (per-process; used by `repro bench`)
# ---------------------------------------------------------------------------


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

    @property
    def compactions(self):
        return sum(sim.compactions for sim in self._simulators)

    @property
    def simulators(self):
        return len(self._simulators)

    def to_dict(self):
        return {
            "events_fired": self.events_fired,
            "instructions": self.instructions,
            "compactions": self.compactions,
            "simulators": self.simulators,
        }


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


def adopt_simulator(sim):
    """Called by ``Simulator.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_simulator(sim)


def adopt_machine(machine):
    """Called by ``Machine.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_machine(machine)
