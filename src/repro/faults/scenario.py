"""Chaos scenarios: end-to-end fault drills over the simulated stack.

Two layers, composable:

* :class:`VmcsScrubber` — detect-and-repair for injected VMCS
  corruption (diff against a clean snapshot, restore, count recovery);
* :func:`run_chaos_cell` — one cell of the resilience matrix: a nested
  cpuid loop on a :class:`~repro.core.system.Machine` with the fault
  plan armed (ring faults under SW SVt, spurious interrupts and VMCS
  corruption everywhere), returning the injection/recovery scoreboard.
"""

from repro.errors import DeadlockError
from repro.faults.plan import FaultKind

#: Livelock budget for chaos runs: generous (a chaos cell fires a few
#: hundred events) but finite, so a self-rescheduling bug is loud.
CHAOS_MAX_EVENTS = 100_000


class VmcsScrubber:
    """Detect-and-repair for VMCS corruption faults.

    Snapshots the clean state once (re-arm after legitimate writes with
    :meth:`rearm`); :meth:`scrub` diffs live values against the
    snapshot, restores any damage, and reports the repair back to the
    injector's scoreboard.
    """

    def __init__(self, vmcs, faults=None):
        self.vmcs = vmcs
        self.faults = faults
        self._clean = vmcs.snapshot()
        #: One tuple of repaired field names per scrub that found damage.
        self.repairs = []

    def rearm(self):
        """Adopt the current values as the new clean reference."""
        self._clean = self.vmcs.snapshot()

    def scrub(self):
        """Repair any divergence from the clean snapshot; returns the
        repaired field names (empty when the VMCS was intact)."""
        changed = self.vmcs.restore(self._clean) if (
            self.vmcs.diff(self._clean)) else []
        if changed:
            self.repairs.append(tuple(changed))
            if self.faults is not None:
                self.faults.resolve_vmcs(self.vmcs.name)
        return changed


# ---------------------------------------------------------------------------
# The resilience-matrix cell
# ---------------------------------------------------------------------------

def run_chaos_cell(mode, plan, iterations=40, watchdog=None):
    """One chaos cell: a nested cpuid loop under an armed fault plan.

    Ring faults bite only under SW SVt (the rings exist only there);
    spurious interrupts and VMCS corruption apply to every mode.
    Returns a plain dict (JSON-ready) with the resilience scoreboard.
    """
    from repro.core.system import Machine
    from repro.cpu import isa

    machine = Machine(mode=mode, faults=plan, watchdog=watchdog)
    injector = machine.faults
    scrubber = VmcsScrubber(machine.stack.vmcs02, faults=injector)
    # The adversary's interrupt barrage over the expected run horizon.
    horizon_ns = max(10_000, iterations * 12_000)
    contexts = list(range(3 if mode == "hw_svt" else 2))
    injector.schedule_spurious(machine.interrupts, horizon_ns, contexts)

    machine.run_program(isa.Program([isa.cpuid()]))      # warmup
    deadlock_report = None
    completed = 0
    start = machine.sim.now
    end = start
    try:
        for _ in range(iterations):
            injector.corrupt_vmcs(machine.stack.vmcs02)
            scrubber.scrub()
            machine.run_program(isa.Program([isa.cpuid()]))
            completed += 1
        machine.run_until_idle(max_events=CHAOS_MAX_EVENTS)
        # Timing stops here: the drain below only flushes interrupts
        # that arrived after the last measured instruction.
        end = machine.sim.now
        machine.run_program(isa.Program([isa.alu(100)]))
    except DeadlockError as err:
        end = machine.sim.now
        injector.note_deadlocked()
        deadlock_report = err.report.to_dict() if err.report else None
    elapsed = end - start

    spurious_seen = injector.injected.get(FaultKind.SPURIOUS_IRQ, 0)
    if deadlock_report is None and spurious_seen:
        # The run absorbed every spurious interrupt through the normal
        # exit path — that *is* the recovery for this fault class.
        already = injector.recovered.get(FaultKind.SPURIOUS_IRQ, 0)
        injector.note_recovered(FaultKind.SPURIOUS_IRQ,
                                spurious_seen - already)

    engine = machine.engine
    return {
        "mode": mode,
        "plan": plan.to_dict(),
        "iterations": iterations,
        "completed_iterations": completed,
        "elapsed_ns": elapsed,
        "ns_per_op": (elapsed / completed) if completed else 0.0,
        "counters": injector.counters(),
        "injected_total": injector.total_injected,
        "recovered_total": injector.total_recovered,
        "degraded": getattr(engine, "degraded", False),
        "degrade_events": [event.to_dict() for event in
                           getattr(engine, "degrade_events", [])],
        "watchdog": (machine.watchdog.counters()
                     if machine.watchdog is not None else None),
        "deadlock": deadlock_report,
        "retransmissions": (machine.channels.retransmissions
                            if machine.channels is not None else 0),
    }
