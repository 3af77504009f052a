"""SMT core: fetch steering, the single-running-context invariant,
cross-context access plumbing."""

import pytest

from repro.cpu.context import ContextState
from repro.cpu.costs import CostModel
from repro.cpu.smt import INVALID_CONTEXT, SmtCore
from repro.errors import VirtualizationError
from repro.sim.engine import Simulator
from repro.sim.trace import Category, Tracer


def make_core(n_contexts=3):
    sim = Simulator()
    return SmtCore(sim, CostModel(), Tracer(sim), n_contexts=n_contexts)


def test_context_zero_starts_running():
    core = make_core()
    assert core.svt_current == 0
    assert core.active_context.is_running
    core.check_single_running()


def test_needs_at_least_one_context():
    with pytest.raises(VirtualizationError):
        make_core(n_contexts=0)


def test_load_svt_fields_validates_indexes():
    core = make_core()
    with pytest.raises(VirtualizationError):
        core.load_svt_fields(0, 9, INVALID_CONTEXT)


def test_invalid_context_sentinel_is_accepted():
    core = make_core()
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    assert core.svt_nested == INVALID_CONTEXT


def test_resume_switches_to_svt_vm_and_sets_is_vm():
    core = make_core()
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    core.svt_resume()
    assert core.svt_current == 1
    assert core.is_vm is True
    assert core.contexts[0].state == ContextState.STALLED
    assert core.contexts[1].state == ContextState.RUNNING
    core.check_single_running()


def test_trap_switches_to_svt_visor_and_clears_is_vm():
    core = make_core()
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    core.svt_resume()
    core.svt_trap()
    assert core.svt_current == 0
    assert core.is_vm is False
    core.check_single_running()


def test_resume_without_svt_vm_rejected():
    core = make_core()
    core.load_svt_fields(0, INVALID_CONTEXT, INVALID_CONTEXT)
    with pytest.raises(VirtualizationError):
        core.svt_resume()


def test_trap_without_visor_rejected():
    core = make_core()
    with pytest.raises(VirtualizationError):
        core.svt_trap()


def test_switch_charges_stall_resume_cost():
    core = make_core()
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    before = core.sim.now
    core.svt_resume()
    assert core.sim.now - before == core.costs.svt_stall_resume
    assert core.tracer.totals[Category.STALL_RESUME] >= \
        core.costs.svt_stall_resume


def test_switch_to_self_is_free():
    core = make_core()
    core.load_svt_fields(1, 0, INVALID_CONTEXT)  # vm == current context
    before = core.sim.now
    core.svt_resume()  # already fetching from context 0
    assert core.sim.now == before


def test_cross_read_write_through_prf():
    core = make_core()
    core.cross_write(2, "rax", 77)
    assert core.cross_read(2, "rax") == 77
    # The owning context sees the same value (same rename map).
    assert core.context(2).read("rax") == 77


def test_cross_access_charges_cost():
    core = make_core()
    before = core.sim.now
    core.cross_write(1, "rbx", 1)
    core.cross_read(1, "rbx")
    assert core.sim.now - before == 2 * core.costs.ctxt_access


def test_unknown_context_rejected():
    core = make_core()
    with pytest.raises(VirtualizationError):
        core.context(5)
    with pytest.raises(VirtualizationError):
        core.cross_read(7, "rax")


@pytest.mark.parametrize("index", [3, -1])
@pytest.mark.parametrize("access", [
    lambda core, index: core.context(index),
    lambda core, index: core.cross_read(index, "rax"),
    lambda core, index: core.cross_write(index, "rax", 1),
    lambda core, index: core.force_fetch(index),
], ids=["context", "cross_read", "cross_write", "force_fetch"])
def test_every_context_access_checks_the_index(access, index):
    """A negative index must not wrap around to the last context."""
    core = make_core()
    with pytest.raises(VirtualizationError,
                       match=rf"^no hardware context {index}$"):
        access(core, index)
    assert core.svt_current == 0
    core.check_single_running()


def test_two_running_contexts_break_the_invariant():
    core = make_core()
    core.contexts[2].set_state(ContextState.RUNNING)
    with pytest.raises(AssertionError,
                       match=r"^multiple running contexts: \[0, 2\]$"):
        core.check_single_running()


def test_full_trap_resume_cycle_preserves_register_state():
    # State survives stall/resume because it never leaves the PRF — the
    # paper's core claim.
    core = make_core()
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    core.context(1).write("rsp", 0xBEEF)
    core.svt_resume()
    core.svt_trap()
    core.svt_resume()
    assert core.context(1).read("rsp") == 0xBEEF
