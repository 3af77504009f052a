"""Trace replay: repricing parity against direct simulation.

The load-bearing property: for the cpuid workload the control flow is
model-independent, so re-pricing a recorded trace under model M must
equal *simulating* under M — exactly, per category, in integers.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import replay
from repro.core.mode import ExecutionMode
from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.sim.trace import Category

MODELS = ("xeon-paper", "arm-flavour", "riscv-flavour", "fast-switch",
          "slow-ring")

MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT,
         ExecutionMode.HW_SVT)


@pytest.fixture(scope="module")
def recordings():
    """One recording per mode under the default model (shared: the
    parity tests only *read* them)."""
    return {
        mode: replay.record_cpuid(mode=mode, iterations=50)
        for mode in MODES
    }


def test_recording_matches_table1(recordings):
    baseline = recordings[ExecutionMode.BASELINE]
    sw = recordings[ExecutionMode.SW_SVT]
    assert sum(baseline.totals.values()) / baseline.iterations == 10400.0
    assert sum(sw.totals.values()) / sw.iterations == 8460.0
    assert baseline.model_id == "xeon-paper"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model", MODELS)
def test_reprice_equals_direct_simulation(recordings, mode, model):
    # The acceptance bar: >= 3 models, exact per-category equality on
    # the Table-1 cpuid golden (here: all five registered models).
    repriced = replay.reprice(recordings[mode], model)
    direct = replay.record_cpuid(mode=mode, iterations=50, costs=model)
    assert repriced.totals == direct.totals
    assert repriced.model_id == model


def test_reprice_to_same_model_is_identity(recordings):
    for trace in recordings.values():
        assert replay.reprice(trace, "xeon-paper").totals == trace.totals


def test_sw_placement_what_if(recordings):
    # Re-routing the channel while repricing equals recording there.
    repriced = replay.reprice(recordings[ExecutionMode.SW_SVT],
                              "xeon-paper", placement="numa")
    direct = replay.record_cpuid(mode=ExecutionMode.SW_SVT,
                                 iterations=50, placement="numa")
    assert repriced.totals == direct.totals


def test_ops_divide_out_split_charges(recordings):
    # The L0 handler is charged in two pieces per exit; unit-op
    # derivation must see through the split (why repricing is
    # totals-based).
    baseline = replay.reprice(recordings[ExecutionMode.BASELINE],
                              "xeon-paper")
    assert baseline.ops[Category.L0_HANDLER] == 50
    hw = replay.reprice(recordings[ExecutionMode.HW_SVT], "xeon-paper")
    assert hw.ops[Category.STALL_RESUME] == 200   # 4 per op


def test_inexact_division_raises(recordings):
    trace = recordings[ExecutionMode.BASELINE]
    tampered = dataclasses.replace(
        trace,
        totals={**trace.totals,
                Category.L1_HANDLER: trace.totals[Category.L1_HANDLER]
                + 1},
    )
    with pytest.raises(replay.ReplayError, match="not a multiple"):
        replay.reprice(tampered, "arm-flavour")


def test_zero_priced_recording_is_unrecoverable():
    free_stall = CostModel().derived("free-stall-test",
                                     svt_stall_resume=0)
    costmodels.register_model(free_stall)
    try:
        trace = replay.record_cpuid(mode=ExecutionMode.HW_SVT,
                                    iterations=10, costs=free_stall)
        with pytest.raises(replay.ReplayError, match="unrecoverable"):
            replay.reprice(
                dataclasses.replace(
                    trace,
                    totals={**trace.totals, Category.STALL_RESUME: 800},
                ),
                "xeon-paper")
    finally:
        costmodels.unregister_model("free-stall-test")


def test_unpriced_categories_carry_verbatim(recordings):
    trace = recordings[ExecutionMode.BASELINE]
    with_idle = dataclasses.replace(
        trace, totals={**trace.totals, Category.IDLE: 777})
    repriced = replay.reprice(with_idle, "riscv-flavour")
    assert repriced.totals[Category.IDLE] == 777
    assert repriced.carried == (Category.IDLE,)


@settings(max_examples=20, deadline=None)
@given(iterations=st.integers(min_value=1, max_value=40))
def test_repriced_totals_are_linear_in_iterations(iterations):
    # Post-warmup, every category's total is iteration-linear, and
    # repricing preserves that: reprice(n iters) == n * reprice(1 iter).
    unit = replay.reprice(
        replay.record_cpuid(mode=ExecutionMode.SW_SVT, iterations=1),
        "arm-flavour")
    scaled = replay.reprice(
        replay.record_cpuid(mode=ExecutionMode.SW_SVT,
                            iterations=iterations),
        "arm-flavour")
    assert scaled.totals == {
        category: iterations * ns
        for category, ns in unit.totals.items()
    }
