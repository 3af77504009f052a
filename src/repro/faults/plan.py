"""Fault plans: what to break, how often, and with which seed.

A :class:`FaultPlan` is a frozen description of an adversarial
environment — per-fault-class rates plus one seed.  It contains **no**
mutable state and **no** randomness of its own: the paired
:class:`~repro.faults.injector.FaultInjector` forks one deterministic
stream (`repro.sim.rng`) per fault site from the plan's seed, so the
same plan replays bit-for-bit on any machine and at any ``--jobs``
count, and adding a new fault class never perturbs the draws of the
existing ones.

Fault taxonomy (see ``docs/robustness.md``):

* **ring faults** — drop / duplicate / delay / corrupt a ``Command`` in
  a SW SVt command ring (`repro.core.channel`);
* **lost wakeups** — the command lands in the ring but the parked
  waiter's mwait/mutex wake is lost (`repro.core.wait`);
* **spurious interrupts** — IPIs/vectors fired at arbitrary sim times
  (`repro.cpu.interrupts`), generalizing the §5.3 interleaving;
* **VMCS corruption** — flip or clear SVt/control fields
  (`repro.virt.vmcs`).
"""

from dataclasses import dataclass, field


class FaultKind:
    """String constants naming every injectable fault class."""

    RING_DROP = "ring_drop"
    RING_DUPLICATE = "ring_duplicate"
    RING_DELAY = "ring_delay"
    RING_CORRUPT = "ring_corrupt"
    LOST_WAKEUP = "lost_wakeup"
    SPURIOUS_IRQ = "spurious_irq"
    VMCS_FLIP = "vmcs_flip"
    #: Serve-tier fault: kill a worker process mid-request (the serve
    #: supervisor consults the injector once per dispatch).
    WORKER_KILL = "worker_kill"

    #: Ring-level faults, decided per push.
    RING = (RING_DROP, RING_DUPLICATE, RING_DELAY, RING_CORRUPT,
            LOST_WAKEUP)
    ALL = RING + (SPURIOUS_IRQ, VMCS_FLIP, WORKER_KILL)


@dataclass(frozen=True)
class FaultPlan:
    """Frozen description of one adversarial environment.

    ``rate`` is the headline per-opportunity fault probability; each
    class can be overridden individually via ``rates``.  ``rate=0.0``
    (the default) is the contract-checked no-op plan: an injector built
    from it makes no draws and perturbs nothing, so the zero-fault cell
    of the chaos matrix reproduces seed results exactly.
    """

    seed: int = 0
    rate: float = 0.0
    #: Per-class overrides: {FaultKind.*: probability}.
    rates: tuple = field(default_factory=tuple)
    #: How long a delayed command stays invisible (ns, sim clock).
    delay_ns: int = 4_000
    #: Spurious interrupts per microsecond of scheduled horizon,
    #: scaled by the spurious rate.
    spurious_per_us: float = 0.05
    #: Upper bound of spurious interrupts per schedule call.
    max_spurious: int = 32

    def __post_init__(self):
        for name, value in (("rate", self.rate),):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        normalized = tuple(sorted(dict(self.rates).items()))
        for kind, value in normalized:
            if kind not in FaultKind.ALL:
                raise ValueError(f"unknown fault kind {kind!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"rate for {kind} must be in [0, 1]: {value}"
                )
        object.__setattr__(self, "rates", normalized)
        if self.delay_ns < 0:
            raise ValueError(f"delay_ns must be >= 0: {self.delay_ns}")

    def rate_for(self, kind):
        """Effective probability for one fault class."""
        if kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {kind!r}")
        return dict(self.rates).get(kind, self.rate)

    @property
    def is_zero(self):
        """True when no fault class can ever fire (the no-op plan)."""
        return all(self.rate_for(kind) == 0.0 for kind in FaultKind.ALL)

    def to_dict(self):
        return {
            "seed": self.seed,
            "rate": self.rate,
            "rates": dict(self.rates),
            "delay_ns": self.delay_ns,
            "spurious_per_us": self.spurious_per_us,
            "max_spurious": self.max_spurious,
        }
