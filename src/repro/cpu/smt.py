"""SMT core with SVt fetch steering.

Implements the micro-architectural side of paper §4 / Figure 4: several
hardware contexts share one physical register file; a per-core
``SVt_current`` register selects which context the front-end fetches from;
``SVt_visor`` / ``SVt_vm`` / ``SVt_nested`` (cached from the active VMCS
at VMPTRLD time) steer VM trap and resume events; ``is_vm`` marks whether
guest code is executing.

The core enforces the paper's cardinal invariant: **at most one context is
RUNNING at any instant** ("only one hardware thread is executing at any
point in time", §1), which is also why SVt sidesteps SMT's side-channel
and interference problems (§3.4).
"""

from repro.cpu.context import ContextState, HardwareContext
from repro.cpu.prf import PhysicalRegisterFile
from repro.errors import VirtualizationError
from repro.sim import sanitizer as _san
from repro.sim.trace import Category

#: Sentinel for "no context" in SVt_* registers (paper: "an invalid value").
INVALID_CONTEXT = -1


class SmtCore:
    """One SMT core: contexts, shared PRF, SVt micro-registers."""

    def __init__(self, sim, cost_model, tracer, n_contexts=2, prf_size=512,
                 core_id=0, obs=None):
        if n_contexts < 1:
            raise VirtualizationError("core needs at least one context")
        self.core_id = core_id
        self.sim = sim
        self.costs = cost_model
        self.tracer = tracer
        self.obs = obs
        self.prf = PhysicalRegisterFile(prf_size)
        self.contexts = [
            HardwareContext(i, self.prf) for i in range(n_contexts)
        ]
        # SVt micro-architectural registers (paper Table 2).
        self.svt_current = 0
        self.svt_visor = INVALID_CONTEXT
        self.svt_vm = INVALID_CONTEXT
        self.svt_nested = INVALID_CONTEXT
        self.is_vm = False
        self.contexts[0].set_state(ContextState.RUNNING)

    # -- basic accessors -----------------------------------------------------

    @property
    def n_contexts(self):
        return len(self.contexts)

    @property
    def active_context(self):
        return self.contexts[self.svt_current]

    def context(self, index):
        if not 0 <= index < len(self.contexts):
            raise VirtualizationError(f"no hardware context {index}")
        return self.contexts[index]

    def running_contexts(self):
        return [c for c in self.contexts if c.is_running]

    def check_single_running(self):
        """The SVt invariant: at most one context fetches at a time."""
        running = [c.index for c in self.contexts
                   if c.state == ContextState.RUNNING]
        if len(running) > 1:
            raise AssertionError(f"multiple running contexts: {running}")

    # -- SVt micro-register management (VMPTRLD path, paper §4 step B) -------

    def load_svt_fields(self, visor, vm, nested):
        """Cache the three SVt VMCS fields into the micro-registers.
        Called when the active VMCS is loaded (VMPTRLD)."""
        count = len(self.contexts)
        for name, value in (("visor", visor), ("vm", vm), ("nested", nested)):
            if value != INVALID_CONTEXT and not 0 <= value < count:
                raise VirtualizationError(
                    f"SVt_{name} points at nonexistent context {value}"
                )
        self.svt_visor = visor
        self.svt_vm = vm
        self.svt_nested = nested
        self.tracer.charge(self.costs.svt_vmptrld_cache,
                           Category.STALL_RESUME)

    # -- fetch steering (paper §4 steps C / steady state) ---------------------

    def svt_resume(self):
        """VM resume in SVt mode: stall the current context, fetch from
        ``SVt_vm``, set ``is_vm`` (paper: "copies SVt_vm into SVt_current
        ... also sets the is_vm register to one")."""
        if self.svt_vm == INVALID_CONTEXT:
            raise VirtualizationError("VM resume with no SVt_vm configured")
        self._switch_fetch(self.svt_vm)
        self.is_vm = True

    def svt_trap(self):
        """VM trap in SVt mode: stall the current context, fetch from
        ``SVt_visor``, clear ``is_vm``."""
        if self.svt_visor == INVALID_CONTEXT:
            raise VirtualizationError("VM trap with no SVt_visor configured")
        self._switch_fetch(self.svt_visor)
        self.is_vm = False

    def force_fetch(self, target_index):
        """Steer the fetch target directly (used by extensions like the
        §3.1 level bypass, where a resume skips intermediate levels)."""
        self._switch_fetch(target_index)

    def _switch_fetch(self, target_index):
        """Stall current, run target, charge one stall/resume event."""
        contexts = self.contexts
        if not 0 <= target_index < len(contexts):
            raise VirtualizationError(f"no hardware context {target_index}")
        target = contexts[target_index]
        current = contexts[self.svt_current]
        if current is target:
            return
        current.set_state(ContextState.STALLED)
        target.set_state(ContextState.RUNNING)
        self.svt_current = target_index
        if _san.ACTIVE is not None:
            # The stall/resume pair is itself a sanctioned ordering
            # point between the two contexts' shared-state accesses.
            _san.ACTIVE.ordering_event("ctx-switch")
        self.tracer.charge(self.costs.svt_stall_resume,
                           Category.STALL_RESUME)
        if self.obs is not None:
            self.obs.count("svt_transitions_total",
                           src=current.index, dst=target_index)
        self.check_single_running()

    # -- cross-context register file access (paper §4, ctxtld/ctxtst) ---------

    def cross_read(self, target_index, register):
        """Read ``register`` of another context through its rename map.
        The *semantic* operation — permission checks and ``lvl``
        virtualization live in `repro.core.cross_context`."""
        if not 0 <= target_index < len(self.contexts):
            raise VirtualizationError(f"no hardware context {target_index}")
        value = self.contexts[target_index].read(register)
        self.tracer.charge(self.costs.ctxt_access, Category.CROSS_CONTEXT)
        if self.obs is not None:
            self.obs.count("ctxt_access_total", op="ctxtld")
        return value

    def cross_write(self, target_index, register, value):
        """Write ``register`` of another context through its rename map."""
        if not 0 <= target_index < len(self.contexts):
            raise VirtualizationError(f"no hardware context {target_index}")
        self.contexts[target_index].write(register, value)
        self.tracer.charge(self.costs.ctxt_access, Category.CROSS_CONTEXT)
        if self.obs is not None:
            self.obs.count("ctxt_access_total", op="ctxtst")

    def __repr__(self):
        return (
            f"SmtCore(#{self.core_id}, {self.n_contexts} contexts, "
            f"current={self.svt_current}, is_vm={self.is_vm})"
        )
