"""The paper's §6 HW-SVt scaling methodology vs our direct simulation."""

import pytest

from repro.analysis.hw_model import (
    removable_context_switch_ns,
    scale_sw_to_hw,
)
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa


def traced_cpuid_machine(mode, repeat=10):
    machine = Machine(mode=mode)
    machine.run_program(isa.Program([isa.cpuid()], repeat=repeat))
    return machine


def test_removable_categories_on_baseline():
    machine = traced_cpuid_machine(ExecutionMode.BASELINE, repeat=1)
    removable = removable_context_switch_ns(machine.tracer.totals)
    costs = machine.costs
    expected = (costs.switch_l2_l0 + costs.switch_l0_l1
                + costs.l0_lazy_switch + costs.l1_lazy_switch)
    assert removable == expected


def test_scaling_baseline_predicts_hw_svt_cpuid():
    # Applying the paper's methodology to a *baseline* trace should land
    # on our directly-simulated HW SVt time.
    baseline = traced_cpuid_machine(ExecutionMode.BASELINE)
    predicted_ns = scale_sw_to_hw(baseline.tracer.totals)
    direct = Machine(mode=ExecutionMode.HW_SVT)
    direct.run_program(isa.Program([isa.cpuid()]))  # warmup
    start = direct.sim.now
    direct.run_program(isa.Program([isa.cpuid()], repeat=10))
    direct_ns = direct.sim.now - start
    assert predicted_ns == pytest.approx(direct_ns, rel=0.03)


def test_scaling_sw_trace_also_lands_near_hw():
    sw = traced_cpuid_machine(ExecutionMode.SW_SVT)
    predicted = scale_sw_to_hw(sw.tracer.totals) / 10 / 1000.0  # us/op
    assert predicted == pytest.approx(5.36, rel=0.03)

