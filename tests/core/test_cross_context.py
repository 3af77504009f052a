"""ctxtld/ctxtst lvl-virtualization rules (paper §4)."""

import pytest

from repro.core.cross_context import ctxt_read, ctxt_write, resolve_target
from repro.cpu.costs import CostModel
from repro.cpu.smt import INVALID_CONTEXT, SmtCore
from repro.errors import CrossContextFault
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def core():
    sim = Simulator()
    core = SmtCore(sim, CostModel(), Tracer(sim), n_contexts=3)
    core.load_svt_fields(0, 1, 2)
    return core


def test_host_lvl1_selects_svt_vm(core):
    core.is_vm = False
    assert resolve_target(core, 1) == 1


def test_host_lvl2_selects_svt_nested(core):
    core.is_vm = False
    assert resolve_target(core, 2) == 2


def test_guest_lvl1_selects_svt_nested(core):
    # Paper: "when a guest hypervisor is executing (is_vm == 1), passing
    # lvl == 1 selects the context in SVt_nested".
    core.is_vm = True
    assert resolve_target(core, 1) == 2


def test_guest_lvl2_traps(core):
    # "Any other combination of values produces a trap into the
    # hypervisor, which can then emulate deeper virtualization
    # hierarchies."
    core.is_vm = True
    with pytest.raises(CrossContextFault):
        resolve_target(core, 2)


def test_host_lvl0_and_lvl3_trap(core):
    core.is_vm = False
    with pytest.raises(CrossContextFault):
        resolve_target(core, 0)
    with pytest.raises(CrossContextFault):
        resolve_target(core, 3)


def test_invalid_target_context_traps(core):
    core.load_svt_fields(0, 1, INVALID_CONTEXT)
    core.is_vm = True
    with pytest.raises(CrossContextFault):
        resolve_target(core, 1)


def test_ctxt_write_then_read_roundtrip(core):
    core.is_vm = False
    ctxt_write(core, 2, "rax", 0xAB)
    assert ctxt_read(core, 2, "rax") == 0xAB
    # The value genuinely lives in context 2's register file slice.
    assert core.context(2).read("rax") == 0xAB


def test_subordinate_only_access(core):
    # A guest hypervisor can only reach its own subordinate (SVt_nested);
    # there is no lvl that resolves to the host's context (0).
    core.is_vm = True
    reachable = set()
    for lvl in range(4):
        try:
            reachable.add(resolve_target(core, lvl))
        except CrossContextFault:
            pass
    assert 0 not in reachable


def test_virtualized_indexes_follow_the_loaded_vmcs(core):
    # After L0 loads a different VMCS, the same lvl resolves differently:
    # that is the index virtualization of §4.
    core.is_vm = False
    assert resolve_target(core, 1) == 1     # vmcs01 loaded: L1
    core.load_svt_fields(0, 2, INVALID_CONTEXT)  # vmcs02 loaded: L2
    assert resolve_target(core, 1) == 2


def test_cross_access_charges_ctxt_cost(core):
    before = core.sim.now
    core.is_vm = False
    ctxt_write(core, 1, "rbx", 5)
    assert core.sim.now - before == core.costs.ctxt_access
