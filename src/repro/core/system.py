"""The :class:`Machine` facade — a booted nested stack in one mode.

This is the library's main entry point::

    from repro import Machine, ExecutionMode
    from repro.cpu import isa

    machine = Machine(mode=ExecutionMode.HW_SVT)
    result = machine.run_program(isa.Program([isa.cpuid()], repeat=100))
    print(result.elapsed_ns / result.instructions)

A machine owns one simulated SMT core (three hardware contexts — L0, L1,
L2 — in HW SVt mode, two otherwise), the interrupt controller, the L0 and
L1 hypervisors, the L1 and L2 virtual machines, and the
:class:`~repro.virt.nested.NestedStack` that executes Algorithm 1.
Programs are streams of abstract instructions (`repro.cpu.isa`); the
machine classifies each against the *effective* trap configuration
(vmcs02 for L2 — L1's wishes merged with L0's policy) and routes exits
through the stack.
"""

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

from repro.config import paper_machine
from repro.core.channel import PairedChannels
from repro.core.mode import ExecutionMode
from repro.core.switch import make_engine
from repro.cpu import costmodels
from repro.cpu.interrupts import InterruptController
from repro.cpu.isa import Op
from repro.cpu.smt import SmtCore
from repro.errors import ConfigError, EptFault, VirtualizationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.cpu import segments
from repro.obs.observer import ambient as obs_ambient
from repro.sim import kernel as simkernel
from repro.sim import sanitizer
from repro.sim.engine import Simulator
from repro.sim.trace import Category, Tracer
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import Hypervisor, cpuid_leaf_values
from repro.virt.nested import NestedStack
from repro.virt.vm import VirtualMachine


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Machine.run_program` call."""

    elapsed_ns: int
    instructions: int
    exits: int
    start_ns: int
    end_ns: int

    @property
    def ns_per_instruction(self):
        return (self.elapsed_ns / self.instructions
                if self.instructions else 0.0)


class Machine:
    """A full simulated host running the paper's L0/L1/L2 stack."""

    def __init__(self, mode=ExecutionMode.BASELINE, costs=None, config=None,
                 wait_mechanism="mwait", placement="smt",
                 observer=None, faults=None, watchdog=None):
        """``observer`` (a :class:`repro.obs.Observer`) turns on span
        tracing and/or metrics; when ``None`` the machine adopts an
        ambient capture observer if one is active (the experiment
        runner's per-cell metrics path) and otherwise runs the exact
        pre-observability fast path.

        ``faults`` (a :class:`repro.faults.FaultPlan` or prebuilt
        :class:`repro.faults.FaultInjector`) arms the chaos layer: SW
        SVt command rings may drop/duplicate/delay/corrupt commands or
        lose wakeups per the plan's rates.  ``watchdog`` guards every
        blocking ring wait: ``None`` installs a default
        :class:`repro.faults.Watchdog` whenever faults are armed,
        ``False`` disables recovery (blocked waits raise
        :class:`~repro.errors.DeadlockError` with a structured report),
        and a :class:`~repro.faults.Watchdog` instance is used as-is."""
        self.mode = ExecutionMode.validate(mode)
        #: Instructions executed (stepped or segment-replayed), summed
        #: by :func:`repro.sim.kernel.collect_stats`.
        self.instructions_retired = 0
        self.costs = costmodels.resolve(costs)
        self.config = config or paper_machine()
        self.sim = Simulator()
        if observer is None:
            observer = obs_ambient()
        self.obs = observer
        self.tracer = Tracer(self.sim)
        if observer is not None:
            observer.bind(self.sim)
            self.sim.obs = observer
        # Runtime ordering sanitizer (REPRO_SIM_SANITIZE=1): observes
        # shared-state accesses against the new machine's clock; a no-op
        # global None when the flag is unset (repro.sim.sanitizer).
        sanitizer.maybe_install(self._read_clock, observer)

        n_contexts = 3 if mode == ExecutionMode.HW_SVT else 2
        self.core = SmtCore(self.sim, self.costs, self.tracer,
                            n_contexts=n_contexts, obs=observer)
        self.interrupts = InterruptController(self.sim, n_contexts,
                                              self.costs, obs=observer)

        self.l0 = Hypervisor("L0", 0)
        self.l1 = Hypervisor("L1", 1)
        self.l1_vm = VirtualMachine(
            "L1-vm", 1,
            ram_mb=64,
            n_vcpus=self.config.vm(1).vcpus,
        )
        self.l2_vm = VirtualMachine(
            "L2-vm", 2,
            ram_mb=32,
            n_vcpus=self.config.vm(2).vcpus,
            # L1's EPT for L2 points into L1's guest-physical RAM: L2's
            # 32 MB live at offset 16 MB inside L1's 64 MB.
            ram_target_base=16 * 1024 * 1024,
        )
        # Demand-paged L2 memory comes from L1's free RAM above that
        # window (48..64 MB of L1 guest-physical space).
        self.l2_vm.backing_pool_base = 48 * 1024 * 1024
        self.l0.add_guest(self.l1_vm)
        self.l1.add_guest(self.l2_vm)

        # -- chaos layer (docs/robustness.md) ---------------------------
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, obs=observer)
        self.faults = faults
        if watchdog is None and faults is not None:
            watchdog = Watchdog(obs=observer)
        elif watchdog is False or watchdog is None:
            watchdog = None
        self.watchdog = watchdog

        self.channels = None
        if mode == ExecutionMode.SW_SVT:
            self.channels = PairedChannels(
                self.l2_vm.vcpu.name, placement=placement, obs=observer,
                clock=self._read_clock, faults=faults,
            )
        self.engine = make_engine(
            mode, self.sim, self.tracer, self.costs,
            core=self.core, channels=self.channels,
            placement=placement, mechanism=wait_mechanism,
            obs=observer, faults=faults, watchdog=watchdog,
        )

        self.stack = NestedStack(
            self.sim, self.tracer, self.costs, self.engine,
            self.l0, self.l1, self.l1_vm, self.l2_vm,
            interrupts=self.interrupts, obs=observer,
        )
        self.stack.boot()

        if mode == ExecutionMode.HW_SVT:
            # L0 loads each level's state into its hardware context with
            # cross-context stores (paper §4 "Configuring L1").  External
            # interrupts all land on L0's context (paper §3.1).
            self.l1_vm.vcpu.bind_context(self.core.context(1))
            self.l2_vm.vcpu.bind_context(self.core.context(2))
            self.interrupts.redirect_all_to(0)

        # Hook invoked for every interrupt taken while a guest runs:
        # ``irq_router(machine, vector) -> True`` when consumed.  Workload
        # models (e.g. the video player) install their own.
        self.irq_router = None

        # Deferred I/O notifications: device completions must not re-enter
        # the exit machinery mid-exit, so they queue here and drain
        # between instructions (see :meth:`service_io`).
        self._deferred = deque()

        if mode == ExecutionMode.HW_SVT:
            # Enter steady state: L2 running in its context.
            self.engine.resume_l2()

        simkernel.adopt_machine(self)

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------

    def run_program(self, program, level=2):
        """Execute an instruction stream at a virtualization level.

        ``level`` 0 runs native (Fig. 6's L0 bar), 1 runs as a plain
        single-level guest, 2 runs as the nested guest.
        """
        if level not in (0, 1, 2):
            raise ConfigError(f"no virtualization level {level}")
        start = self.sim.now
        exits_before = self._total_exits()
        span = (self.obs.span("run_program", level=level,
                              mode=str(self.mode))
                if self.obs is not None else nullcontext())
        # Segment replay batches charges, which would coarsen
        # per-instruction observability (span streams); that path keeps
        # the instruction-exact stepped loop.  Programs with few
        # batchable instructions also step: compiling them costs more
        # than the batched replay saves (segments.COMPILE_MIN_INSTRUCTIONS
        # counts ALU/PAUSE work), and both paths are byte-identical by
        # contract either way.
        fast = (self.obs is None
                and (segments.batchable_dynamic(program)
                     >= segments.COMPILE_MIN_INSTRUCTIONS))
        with span:
            if fast:
                count = self._run_segments(program, level)
            else:
                count = 0
                for instruction in program:
                    self.run_instruction(instruction, level)
                    count += 1
        return RunResult(
            elapsed_ns=self.sim.now - start,
            instructions=count,
            exits=self._total_exits() - exits_before,
            start_ns=start,
            end_ns=self.sim.now,
        )

    def _run_segments(self, program, level):
        """Fast-path program execution over the compiled plan.

        Stepped instructions go through :meth:`run_instruction`
        unchanged; segments replay through :meth:`_replay_segment`.
        Returns the executed instruction count (same contract as the
        stepped loop).
        """
        plan = segments.compile_program(program, self.mode, level,
                                        self.costs)
        if plan.single is not None:
            self._replay_segment(plan.single, level,
                                 passes=program.repeat)
            return plan.count * program.repeat
        instructions = program.instructions
        for _ in range(program.repeat):
            for node in plan.nodes:
                if type(node) is int:
                    self.run_instruction(instructions[node], level)
                else:
                    self._replay_segment(node, level, passes=1)
        return plan.count * program.repeat

    def _replay_segment(self, segment, level, passes=1):
        """Charge one segment's cost span, honouring event boundaries.

        Equivalent to running the segment's ALU/PAUSE instructions
        through the stepped loop: the deferred-I/O and interrupt-window
        checks re-run wherever an event can fire (segment entry and
        after any instruction whose charge fired one), and the whole
        remaining span is charged in one call when the next scheduled
        deadline lies at or beyond its end — the stepped loop would have
        made the same checks with the same (empty) outcomes in between.
        """
        sim = self.sim
        costs = segment.costs
        suffix = segment.suffix
        total = segment.total
        n = len(costs)
        index = 0
        retired = 0
        while passes:
            self._segment_boundary(level)
            remaining = suffix[index] + total * (passes - 1)
            if remaining == 0:
                # Zero-cost tail: time cannot pass, so no event can
                # fire and the per-instruction checks stay no-ops.
                retired += (n - index) + n * (passes - 1)
                break
            next_due = sim.peek_next_time()
            if next_due is None or next_due - sim.now >= remaining:
                self.tracer.charge(remaining, Category.GUEST_WORK)
                retired += (n - index) + n * (passes - 1)
                break
            # An event falls strictly inside the remaining span: step
            # one instruction (exactly the stepped cadence) so the
            # boundary checks re-run right after it fires.
            self.tracer.charge(costs[index], Category.GUEST_WORK)
            retired += 1
            index += 1
            if index == n:
                index = 0
                passes -= 1
        self.instructions_retired += retired

    def _segment_boundary(self, level):
        """The checks a segment boundary owes the stepped loop: drain
        deferred I/O, then take any pending interrupts, in that
        order."""
        if self._deferred:
            self.service_io()
        self._take_pending_interrupts(level)

    def run_instruction(self, instruction, level=2):
        """Execute one instruction at a level (exits included)."""
        self.instructions_retired += 1
        if self._deferred:
            self.service_io()
        self._take_pending_interrupts(level)
        if instruction.work_ns:
            self.tracer.charge(instruction.work_ns, Category.GUEST_WORK)
        if level == 0:
            self._execute_native(instruction)
            return
        if instruction.kind == Op.CPUID:
            # Guest-side share of the trapped instruction (Table 1 part 0).
            self.tracer.charge(self.costs.cpuid_guest_work,
                               Category.GUEST_WORK)
        exit_info = self._classify(instruction, level)
        if exit_info is None:
            self._execute_locally(instruction, level)
            return
        if level == 2:
            self.stack.l2_exit(exit_info)
        else:
            self.stack.l1_exit(exit_info)

    def elapse(self, ns, category=Category.IDLE):
        """Let simulated time pass (device/wire waits, idle gaps)."""
        self.tracer.charge(ns, category)

    def run_until_idle(self, limit=None, max_events=None):
        """Drain scheduled events (device completions, timers).
        ``max_events`` forwards the engine's livelock cycle budget."""
        return self.sim.run_until_idle(limit, max_events=max_events)

    # ------------------------------------------------------------------
    # Deferred I/O servicing
    # ------------------------------------------------------------------

    def post_deferred(self, callback):
        """Queue work (e.g. an interrupt-injection chain) to run at the
        next safe point — never inside an in-flight VM exit."""
        self._deferred.append(callback)

    def service_io(self, budget=100_000):
        """Run queued I/O notifications now.  Chains may enqueue more;
        everything drains before returning.  ``budget`` bounds the drain
        against self-perpetuating chains (a deferred callback endlessly
        re-posting itself would otherwise livelock the machine)."""
        drained = 0
        while self._deferred:
            if drained >= budget:
                raise VirtualizationError(
                    f"service_io: deferred chain exceeded its budget of "
                    f"{budget} callbacks (livelocked I/O chain?)"
                )
            self._deferred.popleft()()
            drained += 1

    def wait_until(self, predicate, limit_ns=1_000_000_000):
        """Idle the machine until ``predicate()`` holds, servicing timer
        and device events as simulated time passes.  Models the guest
        blocking on I/O completion."""
        deadline = self.sim.now + limit_ns
        while not predicate():
            if self._deferred:
                self.service_io()
                continue
            next_event = self.sim.peek_next_time()
            if next_event is None:
                raise VirtualizationError(
                    "wait_until: no pending events; predicate can never hold"
                )
            if next_event > deadline:
                raise VirtualizationError("wait_until: limit exceeded")
            # Idle until the event fires (its callback typically posts a
            # deferred chain, serviced on the next loop turn).
            self.tracer.charge(max(0, next_event - self.sim.now),
                               Category.IDLE)
        return self.sim.now

    # ------------------------------------------------------------------
    # Classification: does this instruction exit at this level?
    # ------------------------------------------------------------------

    def _classify(self, instruction, level):
        kind = instruction.kind
        vm = self.l2_vm if level == 2 else self.l1_vm
        vcpu = vm.vcpu
        qual = dict(instruction.operands)

        if kind == Op.ALU or kind == Op.PAUSE:
            return None
        if kind == Op.CPUID:
            return ExitInfo(ExitReason.CPUID, qual, guest_rip=vcpu.rip)
        if kind == Op.VMCALL:
            return ExitInfo(ExitReason.VMCALL, qual, guest_rip=vcpu.rip)
        if kind in (Op.RDMSR, Op.WRMSR):
            reason = (ExitReason.MSR_READ if kind == Op.RDMSR
                      else ExitReason.MSR_WRITE)
            msr = instruction.operand("msr")
            if self._msr_traps(msr, level):
                return ExitInfo(reason, qual, guest_rip=vcpu.rip)
            return None
        if kind in (Op.MMIO_READ, Op.MMIO_WRITE):
            gpa = instruction.operand("addr")
            qual["gpa"] = gpa
            qual["write"] = kind == Op.MMIO_WRITE
            if vm.ept.lookup_mmio(gpa) is not None:
                return ExitInfo(ExitReason.EPT_MISCONFIG, qual,
                                guest_rip=vcpu.rip)
            try:
                vm.ept.translate(gpa)
            except EptFault:
                # Unbacked guest-physical page: demand-paging fault.
                return ExitInfo(ExitReason.EPT_VIOLATION, qual,
                                guest_rip=vcpu.rip)
            return None
        if kind in (Op.IO_READ, Op.IO_WRITE):
            qual["write"] = kind == Op.IO_WRITE
            return ExitInfo(ExitReason.IO_INSTRUCTION, qual,
                            guest_rip=vcpu.rip)
        if kind == Op.HLT:
            return ExitInfo(ExitReason.HLT, qual, guest_rip=vcpu.rip)
        if kind in (Op.VMPTRLD, Op.VMREAD, Op.VMWRITE, Op.VMRESUME,
                    Op.INVEPT):
            # VMX instructions by a guest always trap (the nested case).
            return ExitInfo(getattr(ExitReason, kind.upper()), qual,
                            guest_rip=vcpu.rip)
        if kind == Op.RDTSC:
            # Paper §2.1's example: L1 may give its guest direct TSC
            # access, but L0's policy can force a trap regardless (used
            # for VM scheduling and migration).
            vmcs = self.stack.vmcs02 if level == 2 else self.stack.vmcs01
            if vmcs.force_tsc_exit:
                qual["tsc"] = self._virtual_tsc()
                return ExitInfo(ExitReason.RDTSC, qual,
                                guest_rip=vcpu.rip)
            return None
        if kind in (Op.MONITOR, Op.MWAIT):
            return None  # configured not to exit in this stack
        if kind in (Op.CTXTLD, Op.CTXTST):
            return None  # handled functionally by the engine/writers
        raise VirtualizationError(f"cannot classify instruction {kind!r}")

    def _msr_traps(self, msr, level):
        vmcs = self.stack.vmcs02 if level == 2 else self.stack.vmcs01
        if msr in vmcs.trapped_msrs:
            return True
        return msr in self.l0.policy.forced_msr_traps

    # ------------------------------------------------------------------
    # Non-exiting execution
    # ------------------------------------------------------------------

    def _execute_native(self, instruction):
        """Level 0: nothing traps; emulate architectural effects only."""
        if instruction.kind == Op.CPUID:
            eax, ebx, ecx, edx = cpuid_leaf_values(
                instruction.operand("leaf"), 0
            )
            host = self.core.context(0)
            host.write("rax", eax)
            host.write("rbx", ebx)
            host.write("rcx", ecx)
            host.write("rdx", edx)
            self.tracer.charge(self.costs.cpuid_guest_work,
                               Category.GUEST_WORK)
        elif instruction.kind == Op.WRMSR:
            self.tracer.charge(self.costs.timer_program, Category.GUEST_WORK)

    def _virtual_tsc(self):
        """TSC ticks at the configured core frequency."""
        return int(self.sim.now * self.config.host.freq_ghz)

    def _execute_locally(self, instruction, level):
        """A guest instruction that does not trap (untrapped MSR, RAM
        access...)."""
        vm = self.l2_vm if level == 2 else self.l1_vm
        if instruction.kind == Op.RDTSC:
            # Direct (non-trapping) TSC read, plus any offset the
            # hypervisor configured.
            vmcs = self.stack.vmcs02 if level == 2 else self.stack.vmcs01
            value = self._virtual_tsc() + vmcs.read("tsc_offset")
            vm.vcpu.write("rax", value & 0xFFFFFFFF)
            vm.vcpu.write("rdx", (value >> 32) & 0xFFFFFFFF)
            self.tracer.charge(self.costs.memory_touch, Category.GUEST_WORK)
            return
        if instruction.kind == Op.WRMSR:
            vm.vcpu.write_msr(instruction.operand("msr"),
                              instruction.operand("value"))
            self.tracer.charge(self.costs.memory_touch, Category.GUEST_WORK)
        elif instruction.kind == Op.RDMSR:
            vm.vcpu.write("rax", vm.vcpu.read_msr(instruction.operand("msr")))
            self.tracer.charge(self.costs.memory_touch, Category.GUEST_WORK)

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------

    def _take_pending_interrupts(self, level):
        """Between instructions, a pending interrupt forces an exit to
        L0 (or a custom router consumes it)."""
        target_ctx = 0
        # svtlint: disable=SVT005 — bounded in practice: each iteration
        # acks exactly one pending interrupt, and handlers only add new
        # ones via sim events that cannot fire while this loop spins.
        while self.interrupts.has_pending(target_ctx):
            vector, _raised_at = self.interrupts.ack(target_ctx)
            if self.irq_router is not None and self.irq_router(self, vector):
                continue
            if level == 2:
                self.stack.l2_exit(ExitInfo(
                    ExitReason.EXTERNAL_INTERRUPT,
                    qualification={"vector": vector},
                ))
            elif level == 1:
                self.stack.l1_exit(ExitInfo(
                    ExitReason.EXTERNAL_INTERRUPT,
                    qualification={"vector": vector},
                ))
            else:
                self.tracer.charge(self.costs.irq_delivery, Category.INTERRUPT)

    def _total_exits(self):
        return (sum(self.stack.exit_counts.values())
                + sum(self.stack.aux_exit_counts.values()))

    def _read_clock(self):
        """Zero-argument clock handed to the ordering sanitizer and the
        SW SVt command rings."""
        return self.sim.now

    def __repr__(self):
        return f"Machine(mode={self.mode!r}, t={self.sim.now} ns)"
