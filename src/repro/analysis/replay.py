"""Trace replay: re-price a recorded run under other cost models.

The simulator charges every nanosecond to a :class:`Category` through a
cost model (:mod:`repro.cpu.costs`), and — for a fixed workload — the
*control flow* never depends on the constants: a nested ``cpuid`` makes
the same crossings under any pricing.  That means a recorded trace can
be **re-priced** under a different registered model
(:mod:`repro.cpu.costmodels`) without re-running the simulation: derive
how many unit operations each category holds from the recording model's
unit price, then multiply by the new model's price.

This generalizes :func:`repro.analysis.hw_model.scale_sw_to_hw` (which
rescales one trace into one *mode*) into "any trace under any *model*",
and is what makes the ``repro dse`` design-space driver cheap: record
the three modes once, then sweep hundreds of candidate models over the
recordings.

Why totals
----------

``ops`` per category is derived as ``total // unit_price`` (with an
exact-divisibility check).  A charge count would not do: the L0 handler
is charged in two pieces per nested exit (inject before entering L1,
the remainder after — see ``repro.virt.nested._reflect_to_l1``), and
the total divides that split out exactly.

Known limits (documented, asserted in tests)
--------------------------------------------

* Repricing assumes the target model does not change *control flow*.
  All registered models only re-cost the same events, so this holds;
  a model that (say) changed watchdog behaviour would not be
  replayable.
* Categories without a single unit price in the cost model
  (``interrupt``, ``io_*``, ``watchdog``, ``idle``) are carried over
  unchanged — a re-priced trace of an interrupt-heavy workload is only
  as good as that approximation.  :func:`reprice` reports them in
  ``carried``.
* Zero-priced sites under the *recording* model (e.g. a model with
  ``svt_stall_resume = 0``) leave no total to divide, so their ops are
  unrecoverable; record under a model that prices them (the default
  ``xeon-paper`` does).
"""

from dataclasses import dataclass, field

from repro.core.mode import ExecutionMode
from repro.cpu import costmodels, isa
from repro.errors import ConfigError
from repro.sim.trace import Category


class ReplayError(ConfigError):
    """A trace cannot be re-priced (inexact division, bad context)."""


#: Categories carried over verbatim because no single cost-model
#: constant prices them (see module docstring).
UNPRICED = frozenset({
    Category.INTERRUPT,
    Category.IO_WIRE,
    Category.IO_DEVICE,
    Category.WATCHDOG,
    Category.IDLE,
})


@dataclass(frozen=True)
class RecordedTrace:
    """One recorded run: per-category totals plus pricing context.

    ``totals`` are post-warmup deltas (the §6 measurement
    protocol — the first HW SVt resume differs, so it is excluded just
    as :func:`repro.workloads.cpuid.run` excludes it).  The context
    fields pin everything the unit-price table needs: the exit reason,
    the virtualization level (nested vs. single-level handler tables),
    and the SW SVt channel placement/mechanism.
    """

    mode: str
    level: int
    iterations: int
    model_id: str
    reason: str = "CPUID"
    placement: str = "smt"
    mechanism: str = "mwait"
    totals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RepricedTrace:
    """The result of :func:`reprice`: new totals plus an audit trail."""

    trace: RecordedTrace
    model_id: str
    totals: dict
    #: Unit-operation count derived per priced category.
    ops: dict
    #: Categories copied verbatim (no unit price in the model).
    carried: tuple

    def total_ns(self):
        return sum(self.totals.values())


def unit_price(model, category, *, level=2, reason="CPUID",
               placement="smt", mechanism="mwait"):
    """The cost-model constant behind one record in ``category``.

    Returns ``None`` for categories in :data:`UNPRICED`.  Prices mirror
    the charge sites exactly: the switch/transform categories charge
    per *crossing* (the ``*_each`` halves), the handlers per semantic
    operation, the channel per one-way hop.
    """
    if category in UNPRICED:
        return None
    table = {
        Category.SWITCH_L2_L0: model.switch_l2_l0_each,
        Category.VMCS_TRANSFORM: model.vmcs_transform_each,
        Category.SWITCH_L0_L1: model.switch_l0_l1_each,
        Category.L1_HANDLER: model.l1_pure(reason),
        Category.L1_LAZY_SWITCH: model.l1_lazy_switch,
        Category.STALL_RESUME: model.svt_stall_resume,
        Category.CROSS_CONTEXT: model.ctxt_access,
        Category.CHANNEL: model.channel_one_way(placement, mechanism),
        Category.GUEST_WORK: model.cpuid_guest_work,
    }
    if category == Category.L0_HANDLER:
        return (model.l0_pure(reason) if level == 2
                else model.l0_single(reason))
    if category == Category.L0_LAZY_SWITCH:
        return (model.l0_lazy_switch if level == 2
                else model.l0_single_lazy)
    try:
        return table[category]
    except KeyError:
        raise ReplayError(
            f"no unit price for trace category {category!r}"
        ) from None


def record_cpuid(mode=ExecutionMode.BASELINE, level=2, iterations=50,
                 costs=None, placement="smt", mechanism="mwait"):
    """Record one cpuid-loop run as a :class:`RecordedTrace`.

    Mirrors :func:`repro.workloads.cpuid.run`: one warm-up pass
    (excluded from the recording), then ``iterations`` measured passes.
    """
    # Local import: system -> costmodels -> (tests ->) replay would
    # otherwise make this module part of the machine's import cycle.
    from repro.core.system import Machine

    model = costmodels.resolve(costs)
    machine = Machine(mode=mode, costs=model, placement=placement,
                      wait_mechanism=mechanism)
    program = isa.Program([isa.cpuid()], repeat=1)
    machine.run_program(program, level=level)
    before = machine.tracer.snapshot()
    machine.run_program(isa.Program([isa.cpuid()], repeat=iterations),
                        level=level)
    totals = machine.tracer.since(before)
    return RecordedTrace(
        mode=str(mode),
        level=level,
        iterations=iterations,
        model_id=model.model_id,
        reason="CPUID",
        placement=placement,
        mechanism=mechanism,
        totals={k: v for k, v in totals.items() if v},
    )


def _derive_ops(trace, source):
    """Unit-operation count per priced category, from exact division."""
    ops = {}
    for category, total in trace.totals.items():
        price = unit_price(
            source, category, level=trace.level, reason=trace.reason,
            placement=trace.placement, mechanism=trace.mechanism,
        )
        if price is None:
            continue
        if price == 0:
            if total:
                raise ReplayError(
                    f"category {category!r} holds {total} ns but the "
                    f"recording model {source.model_id!r} prices it at "
                    "0 — operation count is unrecoverable"
                )
            ops[category] = 0
            continue
        if total % price:
            raise ReplayError(
                f"category {category!r}: total {total} ns is not a "
                f"multiple of {source.model_id!r}'s unit price {price}"
                " — the trace was not recorded under this model"
            )
        ops[category] = total // price
    return ops


def reprice(trace, model, placement=None, mechanism=None):
    """Re-price ``trace`` under ``model`` without re-simulating.

    ``model`` may be a registered name or a :class:`CostModel`.
    ``placement``/``mechanism`` optionally re-route the SW SVt channel
    while repricing (a what-if the recording's control flow supports,
    since hop *count* does not depend on either).
    """
    source = costmodels.get_model(trace.model_id)
    target = costmodels.resolve(model)
    placement = trace.placement if placement is None else placement
    mechanism = trace.mechanism if mechanism is None else mechanism
    ops = _derive_ops(trace, source)

    totals = {}
    carried = []
    for category, total in trace.totals.items():
        if category in ops:
            price = unit_price(
                target, category, level=trace.level, reason=trace.reason,
                placement=placement, mechanism=mechanism,
            )
            totals[category] = ops[category] * price
        else:
            totals[category] = total
            carried.append(category)
    return RepricedTrace(
        trace=trace,
        model_id=target.model_id,
        totals=totals,
        ops=ops,
        carried=tuple(sorted(carried)),
    )

