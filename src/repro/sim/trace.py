"""Category-tagged time accounting.

Every nanosecond the machine charges goes through :meth:`Tracer.charge`,
which advances the simulator's clock and attributes the time to a
category.  The categories mirror the breakdown rows of the paper's
Table 1, plus extra buckets used by the I/O and application models.  The
Table 1 reproduction (`repro.analysis.breakdown`) simply reads these
totals back.
"""

from collections import defaultdict


class Category:
    """Trace category names (string constants, not an enum, so workload
    models can mint sub-categories like ``"exit:EPT_MISCONFIG"``)."""

    GUEST_WORK = "guest_work"            # part 0: useful L2/L1/L0 work
    SWITCH_L2_L0 = "switch_l2_l0"        # part 1: explicit L2<->L0 switch
    VMCS_TRANSFORM = "vmcs_transform"    # part 2: vmcs02<->vmcs12 transform
    L0_HANDLER = "l0_handler"            # part 3: L0 emulation work
    L0_LAZY_SWITCH = "l0_lazy_switch"    # part 3 (hidden): lazy save/restore
    SWITCH_L0_L1 = "switch_l0_l1"        # part 4: explicit L0<->L1 switch
    L1_HANDLER = "l1_handler"            # part 5: L1 emulation work
    L1_LAZY_SWITCH = "l1_lazy_switch"    # part 5 (hidden): lazy save/restore
    STALL_RESUME = "stall_resume"        # SVt thread stall/resume events
    CHANNEL = "channel"                  # SW SVt command-ring transfer+wake
    CROSS_CONTEXT = "cross_context"      # ctxtld/ctxtst execution
    IO_WIRE = "io_wire"                  # network fabric / media time
    IO_DEVICE = "io_device"              # device-model processing
    INTERRUPT = "interrupt"              # interrupt delivery/injection
    WATCHDOG = "watchdog"                # fault-recovery backoff waits
    IDLE = "idle"                        # waiting with no one running

    TABLE1_PARTS = (
        GUEST_WORK,
        SWITCH_L2_L0,
        VMCS_TRANSFORM,
        L0_HANDLER,
        SWITCH_L0_L1,
        L1_HANDLER,
    )


class Tracer:
    """Per-category time ledger, and the one charging call.

    :meth:`charge` advances the simulator's clock and attributes the
    same nanoseconds to a category, so the clock and ``totals`` can
    never disagree.  A simulator with an observer attached
    (``sim.obs``) also receives every charge as a span.
    """

    def __init__(self, sim):
        self.sim = sim
        self.totals = defaultdict(int)

    def charge(self, ns, category):
        """Advance the clock by ``ns`` and attribute them to
        ``category``; a zero charge does nothing.

        When no event can fall due inside the charge, the clock moves
        here, in one frame: ``sim._next_due`` never exceeds the next
        live deadline, so ``due > now + ns`` proves that nothing fires
        (the test :meth:`~repro.sim.engine.Simulator.charge` makes).
        Otherwise, and for a negative ``ns``, which raises before
        anything is booked, :meth:`Simulator.charge` drains the due
        events at their timestamps.  The observer sees each charge after
        the clock has moved.
        """
        if ns:
            sim = self.sim
            target = sim.now + ns
            due = sim._next_due
            if ns > 0 and (due is None or due > target):
                sim.now = target
            else:
                sim.charge(ns)
            self.totals[category] += ns
            obs = sim.obs
            if obs is not None:
                obs.charge(category, ns)

    def snapshot(self):
        """Plain-dict copy of the totals (the argument of :meth:`since`)."""
        return dict(self.totals)

    def since(self, snapshot):
        """Per-category ns charged since ``snapshot``, in ``totals``
        order (categories first charged later included)."""
        return {category: ns - snapshot.get(category, 0)
                for category, ns in self.totals.items()}

    def __repr__(self):
        body = ", ".join(
            f"{cat}={ns}" for cat, ns in sorted(self.totals.items())
        )
        return f"Tracer({body})"
