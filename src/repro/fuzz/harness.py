"""Differential execution of one fuzz case across three machines.

One :class:`~repro.fuzz.case.FuzzCase` runs on a fresh
:class:`~repro.core.system.Machine` for every execution mode —
BASELINE / SW_SVT / HW_SVT — always with the runtime ordering
sanitizer armed.  Each run produces a :class:`MachineOutcome`;
:func:`evaluate_case` bundles the three outcomes with the oracle
verdicts (:mod:`repro.fuzz.oracles`) into one JSON-ready
:class:`CaseReport`.

Instruction ops are batched into :class:`~repro.cpu.isa.Program`
streams (so loop ops cross the segment-compilation threshold and
segment replay is genuinely exercised); meta ops flush the batch and
poke the machine directly — interrupt-window stress, SEV-Step-style
single-stepping, simulated-time gaps, and ctxtld/ctxtst bursts in HW
SVt mode.
"""

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import cross_context
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import costmodels, isa
from repro.cpu.interrupts import Vectors
from repro.cpu.registers import RegNames
from repro.errors import (CrossContextFault, DeadlockError, ReproError)
from repro.exp.result import canonical_json
from repro.fuzz import bugs
from repro.fuzz.ops import Kind, to_instructions
from repro.sim import sanitizer
from repro.virt.vmcs import FieldRegistry

#: Every execution mode a case runs under.
MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT,
         ExecutionMode.HW_SVT)

#: VMCS fields that legitimately differ across modes.
SVT_FIELDS = frozenset(
    name for name, fld in FieldRegistry.FIELDS.items()
    if fld.category == "svt"
)

#: VMCS fields the *mode* oracle additionally ignores: the guest-state
#: and exit-information areas record the machine's position at the
#: **last** VM exit, and with an armed timer interleaving a program the
#: identity of that last exit is a function of mode-specific costs.
#: The live architectural state those areas snapshot is compared in
#: full through the vCPUs; the replay oracle compares the areas
#: byte-for-byte.
MODE_VARIANT_FIELDS = SVT_FIELDS | frozenset(
    name for name, fld in FieldRegistry.FIELDS.items()
    if fld.category in ("guest", "exit")
)

#: Horizon handed to the fault injector's spurious-interrupt scheduler.
SPURIOUS_HORIZON_NS = 200_000

#: Event budget for the post-program drain.
DRAIN_MAX_EVENTS = 200_000


@contextmanager
def sanitized():
    """Arm ``REPRO_SIM_SANITIZE`` for the block (restoring the previous
    setting), so every fuzz machine runs under the ordering sanitizer.

    Implemented through the environment: the flag is how
    ``Machine.__init__`` discovers the sanitizer, and forked helpers
    inherit it.
    """
    # svtlint: disable=SVT001 — the env flag is the sanitizer's
    # documented installation channel; it gates pure observation and
    # never reaches a result byte (the flag-flip differential proves
    # it).
    previous = os.environ.get(sanitizer.ENV_FLAG)
    os.environ[  # svtlint: disable=SVT001 — as above
        sanitizer.ENV_FLAG] = "1"
    try:
        yield
    finally:
        if previous is None:
            # svtlint: disable=SVT001 — as above
            os.environ.pop(sanitizer.ENV_FLAG, None)
        else:
            # svtlint: disable=SVT001 — as above
            os.environ[sanitizer.ENV_FLAG] = previous


# ---------------------------------------------------------------------------
# State fingerprinting (the tests/exp differential, as a library)
# ---------------------------------------------------------------------------


def _vcpu_state(vcpu):
    state = {name: vcpu.read(name) for name in RegNames.ALL}
    state["msrs"] = {str(k): v for k, v in sorted(vcpu.msrs.items())}
    state["halted"] = vcpu.halted
    return state


def _ept_state(ept):
    return {"ranges": [list(r) for r in ept._ranges],
            "mmio": [[r.base, r.size] for r in ept._mmio]}


def _vmcs_state(vmcs):
    return {name: value for name, value in sorted(
        vmcs.snapshot().items()) if name not in SVT_FIELDS}


def final_state(machine):
    """The full architectural fingerprint the mode oracle compares —
    the same pieces as the tests/exp state differential."""
    stack = machine.stack
    return {
        "l2_vcpu": _vcpu_state(machine.l2_vm.vcpu),
        "l1_vcpu": _vcpu_state(machine.l1_vm.vcpu),
        "ept12": _ept_state(stack.ept12),
        "ept01": _ept_state(stack.ept01),
        "vmcs02": _vmcs_state(stack.vmcs02),
        "vmcs12": _vmcs_state(stack.vmcs12),
        "vmcs01": _vmcs_state(stack.vmcs01),
    }


# ---------------------------------------------------------------------------
# One machine run
# ---------------------------------------------------------------------------


@dataclass
class MachineOutcome:
    """Everything one mode's run produced."""

    mode: str
    state: dict = field(default_factory=dict)
    clock_ns: int = 0
    instructions: int = 0
    exits: dict = field(default_factory=dict)
    aux_exits: dict = field(default_factory=dict)
    deliveries: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    steering: dict = field(default_factory=dict)
    degraded: bool = False
    deadlock: dict = None
    crash: str = None
    sanitizer_reports: list = field(default_factory=list)
    fault_counters: dict = None

    @property
    def delivered_by_ctx(self):
        counts = Counter(ctx for ctx, _vector in self.deliveries)
        return {str(ctx): n for ctx, n in sorted(counts.items())}

    @property
    def delivered_vectors(self):
        return sorted(vector for _ctx, vector in self.deliveries)

    def mode_comparable(self):
        """The slice that must be byte-equal across execution modes on
        a healthy zero-fault run (clock, exits and steering differ by
        design)."""
        state = {
            key: ({name: value
                   for name, value in section.items()
                   if name not in MODE_VARIANT_FIELDS}
                  if key.startswith("vmcs") else section)
            for key, section in self.state.items()
        }
        # TIMER deliveries are mode-variant: re-arming the TSC
        # deadline replaces the previous one only if it has not fired
        # yet, and where the mode-specific clock places the old
        # deadline relative to the re-arm decides that.  The replay
        # oracle compares them byte-for-byte.
        device = [(ctx, vector) for ctx, vector in self.deliveries
                  if vector != Vectors.TIMER]
        by_ctx = Counter(ctx for ctx, _vector in device)
        return {
            "state": state,
            "delivered_by_ctx": {str(ctx): n for ctx, n
                                 in sorted(by_ctx.items())},
            "delivered_vectors": sorted(v for _ctx, v in device),
            "pending_total": sum(self.pending),
            "degraded": self.degraded,
            "deadlocked": self.deadlock is not None,
            "crash": self.crash,
        }

    def replay_comparable(self):
        """The slice that must be byte-equal when the same case replays
        in the same mode — everything except the sanitizer stream."""
        return {
            "state": self.state,
            "clock_ns": self.clock_ns,
            "instructions": self.instructions,
            "exits": self.exits,
            "aux_exits": self.aux_exits,
            "deliveries": [list(entry) for entry in self.deliveries],
            "pending": self.pending,
            "steering": self.steering,
            "degraded": self.degraded,
            "deadlocked": self.deadlock is not None,
            "crash": self.crash,
            "fault_counters": self.fault_counters,
        }

    def to_dict(self):
        doc = self.replay_comparable()
        doc["mode"] = self.mode
        doc["deadlock"] = self.deadlock
        doc["sanitizer"] = {
            "count": len(self.sanitizer_reports),
            "reports": list(self.sanitizer_reports),
        }
        return doc


@contextmanager
def _handler_state(machine):
    """Put the HW SVt core into the L0-handler state (trap to the
    visor context, vmcs01 active) and return it to resumed-L2 after.

    ctxtld/ctxtst are hypervisor-side instructions: the paper's Table-2
    ``lvl`` rules assume L0 runs them from its own context with its own
    VMCS loaded — between programs the machine idles resumed into L2
    (vmcs02, whose SVt view legitimately has no valid nested slot), so
    the harness mirrors the ``l2_exit``/re-entry engine sequence around
    every burst and the final steering snapshot."""
    machine.core.svt_trap()
    machine.engine.load_vmcs(machine.stack.vmcs01)
    try:
        yield
    finally:
        machine.engine.load_vmcs(machine.stack.vmcs02)
        machine.core.svt_resume()


def _ctxt_burst(machine, op, steering):
    """A ctxtld/ctxtst round-trip burst (HW SVt only): read the
    target's register, store a fuzzed value, load it back, restore.
    Faults and readback mismatches are counted, never raised — the
    steering oracle turns them into violations."""
    count = max(1, op.arg("count", 1))
    lvl = op.arg("lvl", 1)
    register = op.arg("register", "rax")
    value = op.arg("value", 0)
    core = machine.core
    with _handler_state(machine):
        for _ in range(count):
            try:
                original = cross_context.ctxt_read(core, lvl, register)
                cross_context.ctxt_write(core, lvl, register, value)
                readback = cross_context.ctxt_read(core, lvl, register)
                cross_context.ctxt_write(core, lvl, register, original)
            except CrossContextFault:
                steering["ctxt_faults"] += 1
                continue
            steering["ctxt_ops"] += 1
            if readback != value:
                steering["ctxt_mismatches"] += 1


def _steering_snapshot(machine, steering):
    """HW SVt Table-2 observables, taken in the L0-handler state: the
    SVt micro-registers cached from vmcs01, the interrupt redirect
    target, and what each ``lvl`` resolves to with the visor running."""
    core = machine.core
    with _handler_state(machine):
        steering["svt"] = [core.svt_visor, core.svt_vm,
                           core.svt_nested]
        steering["is_vm"] = bool(core.is_vm)
        steering["redirect"] = machine.interrupts.redirect_target
        resolved = {}
        for lvl in (1, 2):
            try:
                resolved[str(lvl)] = cross_context.resolve_target(
                    core, lvl)
            except CrossContextFault as err:
                resolved[str(lvl)] = f"fault: {err}"
        steering["resolve"] = resolved


def run_case_on(mode, case, bug=None, cost_model=None):
    """Execute one case on a fresh machine; never raises for
    simulation-level failures — they land in the outcome."""
    outcome = MachineOutcome(mode=str(mode))
    bug_name = bug if bug is not None else case.bug
    with sanitized(), costmodels.use_default(cost_model):
        sanitizer.drain()   # isolate this run's reports
        machine = Machine(mode=mode, faults=case.fault_plan)
        if bug_name:
            bugs.apply(bug_name, machine)
        machine.interrupts.add_observer(
            lambda ctx, vector: outcome.deliveries.append([ctx, vector])
        )
        if machine.faults is not None:
            machine.faults.schedule_spurious(
                machine.interrupts, SPURIOUS_HORIZON_NS,
                tuple(range(machine.core.n_contexts)),
            )
        if mode == ExecutionMode.HW_SVT:
            outcome.steering = {"ctxt_ops": 0, "ctxt_faults": 0,
                                "ctxt_mismatches": 0}
        try:
            _drive(machine, case, outcome)
        except DeadlockError as err:
            outcome.deadlock = (err.report.to_dict()
                                if err.report is not None
                                else {"detail": str(err)})
        except (ReproError, AssertionError) as err:
            outcome.crash = f"{type(err).__name__}: {err}"
        outcome.state = final_state(machine)
        outcome.clock_ns = machine.sim.now
        outcome.instructions = machine.instructions_retired
        outcome.exits = dict(sorted(machine.stack.exit_counts.items()))
        outcome.aux_exits = dict(
            sorted(machine.stack.aux_exit_counts.items()))
        outcome.pending = [
            machine.interrupts.pending_count(index)
            for index in range(machine.core.n_contexts)
        ]
        if mode == ExecutionMode.HW_SVT:
            _steering_snapshot(machine, outcome.steering)
        outcome.degraded = bool(getattr(machine.engine, "degraded",
                                        False))
        if machine.faults is not None:
            outcome.fault_counters = machine.faults.counters()
        outcome.sanitizer_reports = [
            report.render() for report in sanitizer.drain()
        ]
    return outcome


def _drive(machine, case, outcome):
    """Run the op stream, then drain events and pending interrupts so
    every healthy run ends quiescent."""
    batch = []

    def flush(repeat=1):
        if not batch:
            return
        program = isa.Program(list(batch), repeat=repeat, label="fuzz")
        del batch[:]
        machine.run_program(program, level=2)
        # The battery idiom: hlt parks the vcpu; un-park so the next
        # program executes and final state compares equal.
        machine.l2_vm.vcpu.halted = False
        machine.l1_vm.vcpu.halted = False

    for op in case.ops:
        if op.kind in Kind.INSTRUCTION:
            instructions, repeat = to_instructions(op)
            if repeat > 1:
                flush()
                batch.extend(instructions)
                flush(repeat=repeat)
            else:
                batch.extend(instructions)
            continue
        flush()
        if op.kind == Kind.IRQ:
            # The device fabric: on stock machines every external line
            # is wired to context 0 (the interrupt owner); under HW SVt
            # devices may target any hardware context and the SVt
            # redirect is what steers them back to L0's context — the
            # steering the drop-redirect bug breaks.
            ctx = op.arg("ctx", 0)
            if (machine.mode != ExecutionMode.HW_SVT
                    or ctx >= machine.core.n_contexts):
                ctx = 0
            machine.interrupts.raise_external(
                ctx, op.arg("vector", 0x60), delay=op.arg("delay_ns", 0)
            )
        elif op.kind == Kind.SINGLE_STEP:
            for _ in range(max(1, op.arg("steps", 1))):
                machine.interrupts.raise_external(
                    0, op.arg("vector", 0x60), delay=1)
                machine.run_instruction(
                    isa.alu(op.arg("work_ns", 50)), 2)
        elif op.kind == Kind.ELAPSE:
            machine.elapse(op.arg("ns", 1_000))
        elif op.kind == Kind.CTXT_BURST:
            if machine.mode == ExecutionMode.HW_SVT:
                _ctxt_burst(machine, op, outcome.steering)
    flush()
    # Quiesce: fire every scheduled event (delayed irqs, the TSC
    # deadline), then take what landed pending — twice, because the
    # first drain program can itself arm new deliveries.
    for _round in range(2):
        machine.run_until_idle(max_events=DRAIN_MAX_EVENTS)
        for _ in range(3):
            machine.run_instruction(isa.alu(50), 2)
        machine.l2_vm.vcpu.halted = False
        machine.l1_vm.vcpu.halted = False


# ---------------------------------------------------------------------------
# Whole-case evaluation
# ---------------------------------------------------------------------------


@dataclass
class CaseReport:
    """Three outcomes plus the oracle verdicts for one case."""

    case: object
    outcomes: dict
    violations: list

    @property
    def failed(self):
        return bool(self.violations)

    def violated_oracles(self):
        return sorted({violation.oracle for violation in self.violations})

    def to_dict(self):
        return {
            "case": self.case.to_dict(),
            "outcomes": {
                str(mode): outcome.to_dict()
                for mode, outcome in sorted(self.outcomes.items())
            },
            "violations": [v.to_dict() for v in self.violations],
        }


def evaluate_case(case, bug=None, cost_model=None, replay_check=True):
    """Run a case differentially and judge it against the oracles.

    ``replay_check`` re-runs the HW SVt machine from the same seed and
    demands a byte-identical outcome document — the replay oracle.
    """
    from repro.fuzz import oracles

    outcomes = {
        mode: run_case_on(mode, case, bug=bug, cost_model=cost_model)
        for mode in MODES
    }
    violations = oracles.check_oracles(case, outcomes)
    if replay_check:
        probe = ExecutionMode.HW_SVT
        again = run_case_on(probe, case, bug=bug, cost_model=cost_model)
        first = canonical_json(outcomes[probe].replay_comparable())
        second = canonical_json(again.replay_comparable())
        if first != second:
            violations.append(oracles.Violation(
                oracle="replay",
                detail="re-running hw_svt from the same seed "
                       "produced a different outcome document",
            ))
    return CaseReport(case=case, outcomes=outcomes,
                      violations=violations)
