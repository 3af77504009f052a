"""Switch engines: per-mode pricing and mechanics of boundary crossings.

`repro.virt.nested` executes Algorithm 1's control flow exactly once;
every boundary crossing calls into one of these engines, which (a) charge
the mode's cost for the crossing and (b) perform the mode's *mechanism* —
memory context switches for the baseline, command-ring traffic for the
software prototype, hardware-context stall/resume plus cross-context
register stores for HW SVt.

Cost anchors (see `repro.cpu.costs`): one full baseline nested-trap cycle
sums to Table 1's total; SW SVt replaces the two L0<->L1 crossings and
L1's lazy save/restore with two command hops; HW SVt replaces every
crossing with thread stall/resume.  The paper's numbers for the three
(Table 1's total and Fig. 6's speedups) are rows of `repro.exp.claims`.
"""

from repro.cpu.registers import RegNames
from repro.core.cross_context import ctxt_write
from repro.core.mode import ExecutionMode
from repro.errors import ChannelError, ConfigError, DeadlockError
from repro.faults.watchdog import DegradeEvent
from repro.sim.trace import Category


class SwitchEngine:
    """Stock nested virtualization: memory-based context switches.

    This is the baseline engine and the base of the SVt engines, which
    override the crossings and charges their mechanism replaces.
    """

    mode = ExecutionMode.BASELINE

    def __init__(self, sim, tracer, costs, obs=None):
        self.sim = sim
        self.tracer = tracer
        self.costs = costs
        self.obs = obs
        if obs is None:
            # No histogram to feed: every engine charge is the tracer's.
            self._charge = tracer.charge

    def _charge(self, ns, category):
        """The tracer's charge, and a nonzero one also feeds the
        observer's ``switch_ns`` histogram (an engine built without an
        observer binds the tracer's charge here instead)."""
        self.tracer.charge(ns, category)
        if ns:
            self.obs.observe("switch_ns", ns, category=category)

    # -- crossings ----------------------------------------------------------

    def exit_l2_to_l0(self):
        self._charge(self.costs.switch_l2_l0_each, Category.SWITCH_L2_L0)

    def resume_l2(self):
        self._charge(self.costs.switch_l2_l0_each, Category.SWITCH_L2_L0)

    def enter_l1(self, exit_info, vcpu):
        """Hand a reflected exit to L1 (Alg. 1 line 6)."""
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def leave_l1(self, vcpu):
        """L1's VM resume comes back to L0 (Alg. 1 line 12)."""
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def aux_exit_begin(self):
        """An L1 privileged op traps to L0 (Alg. 1 line 8)."""
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def aux_exit_end(self):
        """...and L0 resumes L1 (Alg. 1 line 10)."""
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def propagate_aux(self, kind):
        """Extra work an aux op of ``kind`` costs while L0 handles it
        (none here; SW SVt propagates some ops across threads)."""

    def exit_l1_single(self):
        """A plain (single-level) guest exit of L1 itself."""
        self._charge(self.costs.switch_l2_l0_each, Category.SWITCH_L2_L0)

    def resume_l1_single(self):
        self._charge(self.costs.switch_l2_l0_each, Category.SWITCH_L2_L0)

    # -- lazy save/restore charges (overridden where they vanish) -----------

    def charge_l0_lazy_nested(self):
        self._charge(self.costs.l0_lazy_switch, Category.L0_LAZY_SWITCH)

    def charge_l0_lazy_direct(self):
        self._charge(self.costs.l0_lazy_direct, Category.L0_LAZY_SWITCH)

    def charge_l1_lazy(self):
        self._charge(self.costs.l1_lazy_switch, Category.L1_LAZY_SWITCH)

    def charge_l0_single_lazy(self):
        self._charge(self.costs.l0_single_lazy, Category.L0_LAZY_SWITCH)

    # -- VMCS activation ------------------------------------------------------

    def load_vmcs(self, vmcs):
        """VMPTRLD: baseline folds the cost into the handler figures."""

    # -- register writers ---------------------------------------------------

    def l1_writer(self, l2_vcpu):
        """How L1's handler updates L2's registers."""
        return l2_vcpu.write

    def l0_writer(self, vcpu, lvl=1):
        """How L0's handler updates a guest's registers."""
        return vcpu.write

    def l0_single_writer(self, vcpu):
        """Writer for single-level exits of L1's own vCPUs.  Those run on
        other cores (with their own SVt pairs under HW SVt), so every
        mode updates the vCPU state directly here."""
        return vcpu.write

    def charge_guest_wake(self, target_level):
        """Waking an idle guest vCPU to deliver an event.  The baseline
        pays a scheduler wakeup for either level; overridden where SVt
        replaces the wake with cheaper machinery."""
        self._charge(self.costs.idle_wake, Category.INTERRUPT)


class SwSvtEngine(SwitchEngine):
    """The software-only prototype (paper §5.2).

    The L2<->L0 path is the stock one, and so are L1's aux traps (L0
    captures the SVt-thread's own trap on the *sibling* hardware
    thread).  The L0<->L1 reflection becomes command-ring traffic to
    the SVt-thread on the sibling SMT hardware thread, and L1's lazy
    save/restore disappears (its state stays live on that thread).
    Register values ride in the command payloads.

    Robustness (``docs/robustness.md``): every blocking ring wait runs
    under an optional sim-clock :class:`~repro.faults.watchdog.Watchdog`.
    A miss charges a bounded-exponential backoff
    (:data:`~repro.sim.trace.Category.WATCHDOG`) and retransmits; after
    ``max_strikes`` the engine **degrades** — it records a
    :class:`~repro.faults.watchdog.DegradeEvent` and permanently falls
    back to the BASELINE memory-switch path for this vCPU (correct,
    just slower).  Without a watchdog a wait that never completes parks
    a waiter in the simulator and raises
    :class:`~repro.errors.DeadlockError` with a structured report.
    """

    mode = ExecutionMode.SW_SVT

    #: L1 privileged ops whose handling must be propagated from L01 to
    #: L00 to keep the hardware contexts consistent (paper §5.2: "e.g.,
    #: accessing certain control and MSR registers, or executing the
    #: INVEPT instruction").  Plain shadow-field VMREAD/VMWRITEs resolve
    #: locally on the sibling thread.
    PROPAGATED_AUX = frozenset({"INVEPT", "CR_ACCESS"})

    def __init__(self, sim, tracer, costs, channels,
                 placement="smt", mechanism="mwait", obs=None,
                 faults=None, watchdog=None):
        super().__init__(sim, tracer, costs, obs=obs)
        self.channels = channels
        self.placement = placement
        self.mechanism = mechanism
        self.faults = faults
        self.watchdog = watchdog
        #: True once the engine gave up on SW SVt for this vCPU.
        self.degraded = False
        #: Every SW-SVt -> BASELINE downgrade, in order.
        self.degrade_events = []
        self._pending_writes = None

    # -- watchdog-guarded ring exchanges ----------------------------------

    def _deadlock(self, site, ring_name, detail):
        """No watchdog, nothing arrived: park the waiter and raise the
        structured report (the §5.3 failure mode, generalized)."""
        self.sim.park(f"svt:{site}", waits_on=ring_name,
                      blocked_on="svt-thread")
        if self.faults is not None:
            self.faults.note_deadlocked()
        raise DeadlockError(
            f"SW SVt blocked at {site}: {detail}",
            report=self.sim.deadlock_report(detail=detail),
        )

    def _degrade(self, site, strikes, reason):
        """Give up on the reflection path: record and fall back."""
        self.degraded = True
        event = DegradeEvent(at_ns=self.sim.now, site=site,
                             strikes=strikes, reason=reason)
        self.degrade_events.append(event)
        if self.faults is not None:
            self.faults.note_degraded()
        if self.obs is not None:
            self.obs.count("svt_degrade_events_total", site=site)
        self._pending_writes = None

    def _send_guarded(self, site, ring, send):
        """Push with backpressure: a full ring strikes the watchdog and
        retries after backoff (the consumer drains meanwhile).  Returns
        False when the exchange degraded instead."""
        while not send():
            if self.watchdog is None:
                self._deadlock(site, ring.name,
                               f"ring {ring.name} full and no consumer "
                               "progress (no watchdog)")
            if self.watchdog.exhausted:
                strikes = self.watchdog.give_up()
                if self.faults is not None:
                    self.faults.resolve_ring(ring.name, "degraded")
                self._degrade(site, strikes,
                              f"ring {ring.name} stayed full")
                return False
            self._charge(self.watchdog.strike(), Category.WATCHDOG)
        return True

    def _await_guarded(self, site, ring, take, resend):
        """Blocking take with watchdog recovery.

        Misses (empty ring, lost wakeup, delayed head, corrupt-entry
        discard) strike the watchdog: charge the backoff on the sim
        clock, retransmit (same exchange id — receivers dedup), retry.
        Returns the command, or ``None`` after degradation.
        """
        while True:
            try:
                command = take()
            except ChannelError:
                command = None
            if command is not None:
                if self.watchdog is not None and self.watchdog.succeed():
                    pass  # recovery counted by the watchdog itself
                if self.faults is not None:
                    self.faults.resolve_ring(ring.name, "recovered")
                return command
            if self.watchdog is None:
                self._deadlock(site, ring.name,
                               f"nothing arrived on {ring.name} "
                               "(no watchdog)")
            if self.watchdog.exhausted:
                strikes = self.watchdog.give_up()
                if self.faults is not None:
                    self.faults.resolve_ring(ring.name, "degraded")
                self._degrade(site, strikes,
                              f"no command on {ring.name} after "
                              f"{strikes} retries")
                return None
            self._charge(self.watchdog.strike(), Category.WATCHDOG)
            resend()

    def _hop(self):
        self._charge(
            self.costs.channel_one_way(self.placement, self.mechanism),
            Category.CHANNEL,
        )
        if self.obs is not None:
            self.obs.count("channel_hops_total",
                           placement=self.placement,
                           mechanism=self.mechanism)

    def _stock_switch(self, vcpu=None, writes=None):
        """The stock L0<->L1 memory switch a degraded exchange falls back
        to.  Leaving L1, it first applies L1's buffered register updates
        directly (nothing is lost).  It charges the switch itself:
        calling the inherited crossing would count a second crossing."""
        if writes:
            for register, value in writes.items():
                vcpu.write(register, value)
        self._pending_writes = None
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def enter_l1(self, exit_info, vcpu):
        if self.degraded:
            self._stock_switch()
            return
        payload = {
            "exit_reason": exit_info.reason,
            "qualification": dict(exit_info.qualification),
            "regs": vcpu.read_gprs(),
            "rip": vcpu.read(RegNames.RIP),
        }
        if self.watchdog is not None:
            self.watchdog.start()
        if not self._send_guarded(
                "enter_l1", self.channels.request,
                lambda: self.channels.try_send_trap(payload,
                                                    now=self.sim.now)):
            self._stock_switch()
            return
        self._hop()
        request = self._await_guarded(
            "enter_l1", self.channels.request,
            self.channels.take_request,
            lambda: self.channels.resend_trap(payload, now=self.sim.now),
        )
        if request is None:
            self._stock_switch()
            return
        self._pending_writes = {}

    def leave_l1(self, vcpu):
        writes = self._pending_writes or {}
        self._pending_writes = None
        if self.degraded:
            # Post-degradation, or degraded mid-exit.
            self._stock_switch(vcpu, writes)
            return
        payload = {"regs": dict(writes)}
        if self.watchdog is not None:
            self.watchdog.start()
        if not self._send_guarded(
                "leave_l1", self.channels.response,
                lambda: self.channels.try_send_resume(payload,
                                                      now=self.sim.now)):
            self._stock_switch(vcpu, writes)
            return
        self._hop()
        response = self._await_guarded(
            "leave_l1", self.channels.response,
            self.channels.take_response,
            lambda: self.channels.resend_resume(payload,
                                                now=self.sim.now),
        )
        if response is None:
            # The writes never made it through the ring: apply the
            # producer-side copy.
            self._stock_switch(vcpu, writes)
            return
        for register, value in response.payload["regs"].items():
            vcpu.write(register, value)

    def charge_l1_lazy(self):
        if self.degraded:
            # Fallback path pays the stock lazy save/restore again.
            super().charge_l1_lazy()
        # L1's handler state never leaves its SMT thread: no lazy cost.

    def propagate_aux(self, kind):
        """Cross-thread state propagation for consistency-critical ops
        (L01 -> L00 and back)."""
        if kind in self.PROPAGATED_AUX:
            self._hop()
            self._hop()

    def charge_guest_wake(self, target_level):
        """The SVt-thread is mwait-parked on the sibling hardware thread:
        waking L1 is just the command's cache-line write.  Waking L2
        still uses the stock scheduler path."""
        if target_level == 2 or self.degraded:
            self._charge(self.costs.idle_wake, Category.INTERRUPT)

    def l1_writer(self, l2_vcpu):
        """L1 has no cross-thread register access: its updates are
        buffered into the CMD_VM_RESUME payload and applied by L0.
        After degradation L1 shares the stock path and writes directly."""
        if self.degraded:
            return l2_vcpu.write

        def write(register, value):
            if self._pending_writes is None:
                if self.degraded:
                    # Degraded mid-exit: fall through to direct writes.
                    l2_vcpu.write(register, value)
                    return
                raise ConfigError("L1 write outside a reflection window")
            self._pending_writes[register] = value
        return write


class HwSvtEngine(SwitchEngine):
    """The proposed hardware (paper §4): stall/resume fetch steering and
    ctxtld/ctxtst register access through the shared PRF."""

    mode = ExecutionMode.HW_SVT

    def __init__(self, sim, tracer, costs, core, obs=None):
        super().__init__(sim, tracer, costs, obs=obs)
        self.core = core

    def load_vmcs(self, vmcs):
        """VMPTRLD caches the SVt fields into the micro-registers
        (paper §4 step B)."""
        self.core.load_svt_fields(
            vmcs.read("svt_visor"),
            vmcs.read("svt_vm"),
            vmcs.read("svt_nested"),
        )

    def exit_l2_to_l0(self):
        self.core.svt_trap()

    def resume_l2(self):
        self.core.svt_resume()

    def enter_l1(self, exit_info, vcpu):
        self.core.svt_resume()

    def leave_l1(self, vcpu):
        self.core.svt_trap()

    def aux_exit_begin(self):
        self.core.svt_trap()

    def aux_exit_end(self):
        self.core.svt_resume()

    def exit_l1_single(self):
        # L1's own vCPUs (e.g. its vhost backend) run on *other* cores,
        # each with its own L0/L1 SVt context pair; their exits are
        # stall/resume events there.  We charge the cost without steering
        # this core's fetch target.
        self._charge(self.costs.svt_stall_resume, Category.STALL_RESUME)

    def resume_l1_single(self):
        self._charge(self.costs.svt_stall_resume, Category.STALL_RESUME)

    def charge_guest_wake(self, target_level):
        # Idle guests are stalled hardware contexts: delivering an event
        # is a thread resume, not a scheduler wakeup.
        self._charge(self.costs.svt_stall_resume, Category.STALL_RESUME)

    # Every lazy save/restore disappears: state lives in the PRF.

    def charge_l0_lazy_nested(self):
        pass

    def charge_l0_lazy_direct(self):
        pass

    def charge_l1_lazy(self):
        pass

    def charge_l0_single_lazy(self):
        pass

    def l1_writer(self, l2_vcpu):
        """L1 updates L2 with ``ctxtst lvl=1`` — resolved through
        SVt_nested because a guest hypervisor is executing (is_vm == 1)."""
        def write(register, value):
            ctxt_write(self.core, 1, register, value)
        return write

    def l0_writer(self, vcpu, lvl=1):
        """L0 updates a guest with ``ctxtst`` — lvl 1 hits SVt_vm, lvl 2
        SVt_nested (is_vm == 0 while L0 runs)."""
        def write(register, value):
            ctxt_write(self.core, lvl, register, value)
        return write


def make_engine(mode, sim, tracer, costs, core=None, channels=None,
                placement="smt", mechanism="mwait", obs=None,
                faults=None, watchdog=None):
    """Factory used by :class:`repro.core.system.Machine`."""
    ExecutionMode.validate(mode)
    if mode == ExecutionMode.BASELINE:
        return SwitchEngine(sim, tracer, costs, obs=obs)
    if mode == ExecutionMode.SW_SVT:
        if channels is None:
            raise ConfigError("SW SVt needs a PairedChannels instance")
        return SwSvtEngine(sim, tracer, costs, channels,
                           placement=placement, mechanism=mechanism,
                           obs=obs, faults=faults, watchdog=watchdog)
    if core is None:
        raise ConfigError("HW SVt needs an SmtCore")
    return HwSvtEngine(sim, tracer, costs, core, obs=obs)
