"""Seed-deterministic fuzz-case generation.

Every draw descends from :func:`derive_stream` — a labelled fork of a
:class:`~repro.sim.rng.DeterministicRng` rooted at the case seed — so
the same seed always composes the same program, independent of
scheduling, process, platform or ``--jobs`` count.  svtlint's
determinism dataflow treats these streams as laundered, exactly like
``sim.rng`` itself (see ``repro.lint.dataflow``).
"""

from repro.faults.plan import FaultKind, FaultPlan
from repro.fuzz.case import FuzzCase
from repro.fuzz.ops import (CTXT_REGISTERS, Kind, FuzzOp, PLAIN_MSRS,
                            VMCS_FIELDS)
from repro.cpu.interrupts import Vectors
from repro.sim.rng import DeterministicRng

#: Vectors the interrupt-window ops may raise.
IRQ_VECTORS = (Vectors.NET_RX, Vectors.NET_TX, Vectors.BLOCK,
               Vectors.TIMER)

#: Weighted grammar: (kind, weight).  Trap sequences dominate, with a
#: steady diet of interrupt-window stress and the occasional
#: segment-compiled loop so segment replay stays exercised.
GRAMMAR = (
    (Kind.ALU, 10),
    (Kind.ALU_LOOP, 3),
    (Kind.CPUID, 10),
    (Kind.CPUID_LOOP, 3),
    (Kind.WRMSR_DEADLINE, 4),
    (Kind.WRMSR_EOI, 3),
    (Kind.WRMSR_PLAIN, 4),
    (Kind.RDMSR_PLAIN, 3),
    (Kind.RDMSR_DEADLINE, 2),
    (Kind.VMCALL, 5),
    (Kind.MMIO_READ, 4),
    (Kind.VMREAD, 3),
    (Kind.VMWRITE, 3),
    (Kind.VMPTRLD, 2),
    (Kind.INVEPT, 2),
    (Kind.HLT, 2),
    (Kind.IRQ, 8),
    (Kind.SINGLE_STEP, 4),
    (Kind.ELAPSE, 4),
    (Kind.CTXT_BURST, 4),
)

#: One in four generated cases runs under a mild fault-plan overlay.
FAULT_CASE_RATIO = 0.25


def derive_stream(seed, label):
    """The root of every fuzz RNG stream: one labelled fork per
    purpose, so adding a draw to one stream never perturbs another."""
    return DeterministicRng(seed).fork(label)


def _draw_args(kind, rng):
    if kind == Kind.ALU:
        return {"work_ns": rng.randint(10, 500)}
    if kind == Kind.ALU_LOOP:
        return {"count": rng.randint(64, 200),
                "work_ns": rng.randint(5, 40)}
    if kind == Kind.CPUID:
        return {"leaf": rng.randint(0, 7)}
    if kind == Kind.CPUID_LOOP:
        return {"count": rng.randint(4, 24), "leaf": rng.randint(0, 7)}
    if kind == Kind.WRMSR_DEADLINE:
        return {"deadline_ns": rng.randint(10_000, 1_000_000)}
    if kind == Kind.WRMSR_PLAIN:
        return {"msr": rng.choice(PLAIN_MSRS),
                "value": rng.randint(0, 2**32 - 1)}
    if kind == Kind.RDMSR_PLAIN:
        return {"msr": rng.choice(PLAIN_MSRS)}
    if kind == Kind.VMCALL:
        return {"number": rng.randint(0, 3)}
    if kind == Kind.MMIO_READ:
        return {"addr": 0x0400_0000 + 0x1000 * rng.randint(0, 63)}
    if kind == Kind.VMREAD:
        return {"fld": rng.choice(VMCS_FIELDS)}
    if kind == Kind.VMWRITE:
        return {"fld": rng.choice(VMCS_FIELDS),
                "value": rng.randint(0, 2**32 - 1)}
    if kind == Kind.IRQ:
        return {"vector": rng.choice(IRQ_VECTORS),
                "ctx": rng.randint(0, 2),
                "delay_ns": rng.choice((0, 0, rng.randint(1, 5_000)))}
    if kind == Kind.SINGLE_STEP:
        return {"vector": rng.choice(IRQ_VECTORS),
                "steps": rng.randint(1, 8),
                "work_ns": rng.randint(20, 200)}
    if kind == Kind.ELAPSE:
        return {"ns": rng.randint(100, 10_000)}
    if kind == Kind.CTXT_BURST:
        return {"lvl": rng.randint(1, 2),
                "register": rng.choice(CTXT_REGISTERS),
                "value": rng.randint(0, 2**32 - 1),
                "count": rng.randint(1, 4)}
    return {}


def _weighted_kind(rng):
    total = sum(weight for _, weight in GRAMMAR)
    pick = rng.randint(1, total)
    for kind, weight in GRAMMAR:
        pick -= weight
        if pick <= 0:
            return kind
    return GRAMMAR[-1][0]


def generate_ops(seed, n_ops):
    """The op sequence alone (property tests reuse this)."""
    kind_rng = derive_stream(seed, "kinds")
    ops = []
    for index in range(n_ops):
        kind = _weighted_kind(kind_rng)
        arg_rng = derive_stream(seed, f"args:{index}:{kind}")
        ops.append(FuzzOp(kind, tuple(_draw_args(kind, arg_rng).items())))
    return tuple(ops)


def generate_case(seed, n_ops=40, bug=None, fault_ratio=None):
    """Compose one fuzz-harness VM program from a seed.

    A ``fault_ratio`` fraction of seeds (default
    :data:`FAULT_CASE_RATIO`) additionally carry a mild
    :class:`~repro.faults.plan.FaultPlan` overlay — ring chaos plus
    plan-driven spurious interrupts — under which the cross-mode
    oracles relax and the crash and replay oracles keep watch.
    """
    ratio = FAULT_CASE_RATIO if fault_ratio is None else fault_ratio
    plan = None
    plan_rng = derive_stream(seed, "fault-plan")
    if plan_rng.random() < ratio:
        plan = FaultPlan(
            seed=plan_rng.randint(0, 2**31 - 1),
            rate=round(plan_rng.uniform(0.01, 0.08), 4),
            rates=((FaultKind.SPURIOUS_IRQ,
                    round(plan_rng.uniform(0.1, 0.5), 4)),),
        )
    return FuzzCase(seed=seed, ops=generate_ops(seed, n_ops),
                    fault_plan=plan, bug=bug)
