"""Category-tagged time accounting.

Every nanosecond the machine charges is attributed to a category.  The
categories mirror the breakdown rows of the paper's Table 1, plus extra
buckets used by the I/O and application models.  The Table 1 reproduction
(`repro.analysis.breakdown`) simply reads these totals back.
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
    """Accumulates per-category time.

    ``observer`` (a :class:`repro.obs.Observer`, attached by the
    machine when observability is on) receives every charge as a span;
    it defaults off, keeping the disabled hot path identical to the
    pre-observability code.
    """

    def __init__(self):
        self.totals = defaultdict(int)
        self.counts = defaultdict(int)
        self.observer = None

    def record(self, category, ns):
        """Attribute ``ns`` nanoseconds to ``category``."""
        if ns < 0:
            raise ValueError(f"negative trace charge {ns} for {category}")
        self.totals[category] += ns
        self.counts[category] += 1
        if self.observer is not None:
            self.observer.charge(category, ns)

    def total(self, *categories):
        """Sum of the given categories (all categories when none given)."""
        if not categories:
            return sum(self.totals.values())
        return sum(self.totals.get(c, 0) for c in categories)

    def share(self, category):
        """Fraction of all traced time spent in ``category``."""
        whole = self.total()
        if whole == 0:
            return 0.0
        return self.totals.get(category, 0) / whole

    def merged_with(self, other):
        """Return a new tracer with both tracers' totals summed."""
        merged = Tracer()
        for src in (self, other):
            for category, ns in src.totals.items():
                merged.totals[category] += ns
            for category, n in src.counts.items():
                merged.counts[category] += n
        return merged

    def reset(self):
        self.totals.clear()
        self.counts.clear()

    def snapshot(self):
        """Plain-dict copy of the totals (useful for diffs in tests)."""
        return dict(self.totals)

    def __repr__(self):
        body = ", ".join(
            f"{cat}={ns}" for cat, ns in sorted(self.totals.items())
        )
        return f"Tracer({body})"
