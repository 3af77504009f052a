"""Property battery for ctxtld/ctxtst (paper §4, Table 2).

Fuzzes the full cross-context access surface: for ANY SVt
micro-register assignment, executing mode, target level and register,
an access must either round-trip through the shared physical register
file exactly as Table 2 specifies, or trap with
:class:`CrossContextFault` — and it must NEVER corrupt a context other
than the resolved target, nor break the PRF's liveness/injectivity
invariants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cross_context import ctxt_read, ctxt_write, resolve_target
from repro.cpu.costs import CostModel
from repro.cpu.registers import RegNames
from repro.cpu.smt import INVALID_CONTEXT, SmtCore
from repro.errors import CrossContextFault
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

N_CONTEXTS = 3

#: An SVt_* micro-register value: a real context or the invalid
#: sentinel (what a VMCS with the field unset caches).
svt_fields = st.integers(0, N_CONTEXTS - 1) | st.just(INVALID_CONTEXT)
levels = st.integers(-1, 4)
registers = st.sampled_from(RegNames.ALL)
values = st.integers(0, 2**64 - 1)


def _core(visor, vm, nested, is_vm):
    sim = Simulator()
    core = SmtCore(sim, CostModel(), Tracer(sim), n_contexts=N_CONTEXTS)
    core.load_svt_fields(visor, vm, nested)
    core.is_vm = is_vm
    return core


def _expected_target(core, lvl):
    """Table 2's resolution rules, restated independently of the
    implementation: the context index, or None for a trap."""
    if not core.is_vm:
        target = {1: core.svt_vm, 2: core.svt_nested}.get(lvl)
    else:
        target = core.svt_nested if lvl == 1 else None
    return None if target == INVALID_CONTEXT else target


@settings(max_examples=200, deadline=None)
@given(svt_fields, svt_fields, svt_fields, st.booleans(), levels)
def test_resolution_matches_table2_or_traps(visor, vm, nested,
                                            is_vm, lvl):
    core = _core(visor, vm, nested, is_vm)
    expected = _expected_target(core, lvl)
    if expected is None:
        with pytest.raises(CrossContextFault):
            resolve_target(core, lvl)
    else:
        assert resolve_target(core, lvl) == expected


@settings(max_examples=100, deadline=None)
@given(svt_fields, svt_fields, svt_fields, st.booleans(), levels,
       registers, values)
def test_write_read_roundtrip_or_trap(visor, vm, nested, is_vm, lvl,
                                      register, value):
    core = _core(visor, vm, nested, is_vm)
    expected = _expected_target(core, lvl)
    if expected is None:
        with pytest.raises(CrossContextFault):
            ctxt_write(core, lvl, register, value)
        with pytest.raises(CrossContextFault):
            ctxt_read(core, lvl, register)
        return
    ctxt_write(core, lvl, register, value)
    assert ctxt_read(core, lvl, register) == value
    # The value genuinely lives in the resolved context's PRF slice.
    assert core.context(expected).read(register) == value


@settings(max_examples=100, deadline=None)
@given(svt_fields, svt_fields, svt_fields, st.booleans(), levels,
       registers, values)
def test_write_never_corrupts_other_contexts(visor, vm, nested,
                                             is_vm, lvl, register,
                                             value):
    core = _core(visor, vm, nested, is_vm)
    # Give every context a distinguishable baseline.
    for context in core.contexts:
        for name in RegNames.GPRS[:4]:
            context.write(name, 1000 + context.index)
    before = [
        {name: context.read(name) for name in RegNames.GPRS[:4]}
        for context in core.contexts
    ]
    try:
        ctxt_write(core, lvl, register, value)
        target = resolve_target(core, lvl)
    except CrossContextFault:
        target = None    # trapped: nothing may have changed anywhere
    for context in core.contexts:
        for name in RegNames.GPRS[:4]:
            if context.index == target and name == register:
                continue
            assert context.read(name) == before[context.index][name]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), levels, registers, values),
                min_size=1, max_size=30))
def test_prf_invariants_survive_access_sequences(operations):
    core = _core(0, 1, 2, False)
    for is_vm, lvl, register, value in operations:
        core.is_vm = is_vm
        try:
            ctxt_write(core, lvl, register, value)
            assert ctxt_read(core, lvl, register) == value
        except CrossContextFault:
            pass
    core.prf.check_invariants()
    for context in core.contexts:
        context.registers.check_invariants()


@settings(max_examples=50, deadline=None)
@given(svt_fields, svt_fields, svt_fields, st.booleans(), levels,
       registers)
def test_trapped_access_charges_no_time(visor, vm, nested, is_vm,
                                        lvl, register):
    core = _core(visor, vm, nested, is_vm)
    if _expected_target(core, lvl) is not None:
        return    # only the trap path is under test here
    before = core.sim.now
    with pytest.raises(CrossContextFault):
        ctxt_read(core, lvl, register)
    # The fault fires at resolution, before the hardware access: the
    # ctxt_access cost must not have been charged.
    assert core.sim.now == before


@settings(max_examples=50, deadline=None)
@given(st.booleans(), levels, registers, values)
def test_successful_access_charges_ctxt_cost(is_vm, lvl, register,
                                             value):
    core = _core(0, 1, 2, is_vm)
    if _expected_target(core, lvl) is None:
        return
    before = core.sim.now
    ctxt_write(core, lvl, register, value)
    assert core.sim.now - before == core.costs.ctxt_access
    before = core.sim.now
    ctxt_read(core, lvl, register)
    assert core.sim.now - before == core.costs.ctxt_access


def test_guest_can_never_reach_the_host_context():
    """§3.4 isolation: no lvl value lets a guest hypervisor resolve the
    host's own context (SVt_visor)."""
    core = _core(0, 1, 2, True)
    for lvl in range(-4, 8):
        try:
            assert resolve_target(core, lvl) != core.svt_visor
        except CrossContextFault:
            pass
