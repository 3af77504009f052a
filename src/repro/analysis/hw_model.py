"""The paper's HW-SVt modelling methodology (paper §6, first page).

*"'HW SVt' shows an approximation of the hardware implementation of SVt.
We modeled it by obtaining detailed timing measurements of each VM trap
event and the cost of the communication channels in SW SVt; we then
compared these numbers to the VM trap breakdown numbers in Table 1, and
scaled the speedup assuming that every VM trap from L2 and L1 would not
pay the cost of context switching."*

:func:`scale_sw_to_hw` applies exactly that scaling to a traced SW SVt
run, as a cross-check of our direct HW SVt simulation — the
``ablation_hw_model`` experiment compares the two.
"""

from repro.sim.trace import Category


def removable_context_switch_ns(tracer):
    """Time in a trace that §6's methodology calls context switching:
    the explicit switches, the lazy save/restore folded into handlers,
    the SW SVt channel hops, and idle-wake scheduler costs."""
    return tracer.total(
        Category.SWITCH_L2_L0,
        Category.SWITCH_L0_L1,
        Category.L0_LAZY_SWITCH,
        Category.L1_LAZY_SWITCH,
        Category.CHANNEL,
    )


# paper: §6 — share of interrupt-delivery time that is scheduler wakeup
# (HW SVt resumes a stalled hardware context instead of waking a thread).
def scale_sw_to_hw(tracer, interrupt_wake_share=0.85):
    """Predicted HW SVt time from a SW SVt (or baseline) trace.

    Removes every context-switch category plus the scheduler-wakeup share
    of interrupt delivery (HW SVt resumes a stalled hardware context
    instead of waking a thread).  Returns predicted total ns.
    """
    total = tracer.total()
    removed = removable_context_switch_ns(tracer)
    removed += int(
        tracer.totals.get(Category.INTERRUPT, 0) * interrupt_wake_share
    )
    return total - removed


def predicted_speedup(tracer):
    """Speedup the paper's methodology would report for this trace."""
    total = tracer.total()
    predicted = scale_sw_to_hw(tracer)
    return total / predicted if predicted else float("inf")
