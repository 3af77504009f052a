"""The paper's claims, asserted on the golden Result documents.

Every claim about a table, a figure, a section study or an ablation is
checked here, on the live documents that ``tests/golden/experiments.json``
pins (the session ``documents`` fixture), so a change that keeps the
golden file but breaks a claim cannot exist: regenerating the golden
still fails here.  Each tolerance is the one the claim has always had.

A few quantities are in no document; for those the test makes the one
library call that computes them (the fleet policy, the 3-context deep
rows, depth-2 traps, the broad related-work exit mix, Fig. 9's HW SVt
throughput, the lazy split's exact ns totals, the cost model's L0<->L1
switch constants, Table 4's thread counts and Table 3's line counts).
"""

import pytest

from repro.analysis.loc import audit
from repro.config import paper_machine
from repro.core.coexist import CoexistConfig, DynamicPolicy
from repro.core.mode import ExecutionMode
from repro.core.related_work import IoOpShape, evaluate
from repro.core.system import Machine
from repro.cpu import costmodels, isa
from repro.exp.experiments.ablations import (
    AblationLazySplit,
    AblationWait,
    with_lazy_fraction,
)
from repro.virt.deep import DeepNestingModel
from repro.virt.hypervisor import MSR_TSC_DEADLINE
from repro.workloads import cpuid, tpcc

#: Table 1 parts: label -> (scalar key, paper µs, paper %).
TABLE1_PAPER = {
    "0 L2": ("l2_us", 0.05, 0.47),
    "1 Switch L2<->L0": ("switch_l2_l0_us", 0.81, 7.75),
    "2 Transform vmcs02/vmcs12": ("transform_vmcs02_vmcs12_us", 1.29, 12.45),
    "3 L0 handler": ("l0_handler_us", 4.89, 47.02),
    "4 Switch L0<->L1": ("switch_l0_l1_us", 1.40, 13.43),
    "5 L1 handler": ("l1_handler_us", 1.96, 18.87),
}
TABLE1_REL_TOL = 0.01       # each part within 1% of Table 1
SPEEDUP_REL_TOL = 0.02      # Fig. 6 speedups within 2%

#: Fig. 7 metric -> ((baseline, rel tol), (SW speedup, abs tol),
#: (HW speedup, abs tol)); randrd bandwidth has range claims instead.
FIG7_PAPER = {
    "net_latency": ((163, 0.06), (1.10, 0.06), (2.38, 0.12)),
    "net_bandwidth": ((9387, 0.03), (1.00, 0.05), (1.12, 0.05)),
    "disk_randrd_latency": ((126, 0.06), (1.30, 0.08), (2.18, 0.25)),
    "disk_randwr_latency": ((179, 0.06), (1.05, 0.05), (2.26, 0.15)),
    "disk_randwr_bandwidth": ((55_769, 0.05), (1.18, 0.06), (2.60, 0.15)),
}

TABLE4_PAPER = {
    "L0": "2xIntel E5-2630v3 (2.4GHz, 8 cores, 2-SMT), "
          "2x64GB RAM, Intel X540-AT2 (10Gb)",
    "L1": "6 vCPUs (1 reserved), 50GB RAM, "
          "virtio-net-pci+vhost, virtio disk @ ramfs",
    "L2": "3 vCPUs (1 reserved), 35GB RAM, "
          "virtio-net-pci+vhost, virtio disk @ ramfs",
}


def _rows(document):
    """``{row label: row values}`` of a document's first table."""
    return {row["label"]: row["values"]
            for row in document["tables"][0]["rows"]}


# -- tables ----------------------------------------------------------------


def test_table1_breakdown(documents):
    table1 = documents["table1"]
    scalars = table1["scalars"]
    rows = _rows(table1)
    assert sorted(rows) == sorted(TABLE1_PAPER)
    assert scalars["total_us"] == pytest.approx(10.40, abs=0.02)
    for label, (key, paper_us, paper_pct) in TABLE1_PAPER.items():
        assert scalars[key] == pytest.approx(paper_us, abs=0.02), label
        assert float(rows[label][1]) == pytest.approx(paper_pct,
                                                      abs=0.2), label


def test_table1_breakdown_matches_paper(documents):
    scalars = documents["table1"]["scalars"]
    for label, (key, paper_us, _pct) in TABLE1_PAPER.items():
        assert scalars[key] == pytest.approx(paper_us,
                                             rel=TABLE1_REL_TOL), label
    total = sum(scalars[key] for key, _us, _pct in TABLE1_PAPER.values())
    assert total == pytest.approx(cpuid.PAPER["baseline_us"],
                                  rel=TABLE1_REL_TOL)


def test_table3_prototype_footprint():
    # Same order of magnitude, same ranking: the KVM-side work dominates.
    ours = audit()
    assert ours["Linux / KVM"] > ours["QEMU"]
    assert ours["Linux / KVM"] > ours["Linux / other"]
    for loc in ours.values():
        assert 50 <= loc <= 5000


def test_table4_machine_parameters(documents):
    rows = _rows(documents["table4"])
    assert {level: values[0] for level, values in rows.items()} \
        == TABLE4_PAPER
    machine = paper_machine()
    assert machine.host.total_hw_threads == 32
    # "experiments run in two virtual CPUs in L2"
    assert machine.vm(2).usable_vcpus == 2


# -- figures ---------------------------------------------------------------


def test_fig6_cpuid_bars(documents):
    scalars = documents["fig6"]["scalars"]
    assert scalars["l2_us"] == pytest.approx(10.40, abs=0.02)
    assert scalars["sw_speedup"] == pytest.approx(1.23, abs=0.01)
    assert scalars["hw_speedup"] == pytest.approx(1.94, abs=0.01)
    # Fig. 6 right axis: ~200x overhead of nested vs native.
    assert scalars["nested_overhead_vs_l0"] == pytest.approx(208,
                                                             rel=0.02)
    assert scalars["l0_us"] < scalars["l1_us"] < scalars["hw_svt_us"]


def test_fig6_speedups_match_paper(documents):
    bars = documents["fig6"]["scalars"]
    hw = bars["l2_us"] / bars["hw_svt_us"]
    sw = bars["l2_us"] / bars["sw_svt_us"]
    assert hw == pytest.approx(cpuid.PAPER["hw_svt_speedup"],
                               rel=SPEEDUP_REL_TOL)
    assert sw == pytest.approx(cpuid.PAPER["sw_svt_speedup"],
                               rel=SPEEDUP_REL_TOL)
    assert bars["l0_us"] == pytest.approx(cpuid.PAPER["l0_us"],
                                          rel=TABLE1_REL_TOL)


def test_fig6_bars_are_ordered_like_the_paper(documents):
    # Deeper virtualization is slower; both SVt variants beat baseline
    # L2 and HW SVt beats SW SVt.
    bars = documents["fig6"]["scalars"]
    assert bars["l0_us"] < bars["l1_us"] < bars["l2_us"]
    assert bars["hw_svt_us"] < bars["sw_svt_us"] < bars["l2_us"]


@pytest.mark.parametrize("metric", sorted(FIG7_PAPER))
def test_fig7_subsystem(documents, metric):
    scalars = documents["fig7"]["scalars"]
    (base, base_rel), (sw, sw_abs), (hw, hw_abs) = FIG7_PAPER[metric]
    assert scalars[f"{metric}_base"] == pytest.approx(base, rel=base_rel)
    assert scalars[f"{metric}_sw_speedup"] == pytest.approx(sw, abs=sw_abs)
    assert scalars[f"{metric}_hw_speedup"] == pytest.approx(hw, abs=hw_abs)


def test_fig7_disk_randrd_bandwidth(documents):
    scalars = documents["fig7"]["scalars"]
    assert scalars["disk_randrd_bandwidth_base"] == pytest.approx(
        87_136, rel=0.10)
    assert 1.2 <= scalars["disk_randrd_bandwidth_sw_speedup"] <= 1.6
    assert 2.0 <= scalars["disk_randrd_bandwidth_hw_speedup"] <= 2.6


def test_fig8_paper_claims(documents):
    """Paper Fig. 8 (§6.3.1): the 2.20x p99 / 1.43x average headline,
    more load within the SLA under SVt, and latency curves that rise
    with load."""
    fig8 = documents["fig8"]
    scalars = fig8["scalars"]
    assert scalars["p99_improvement"] == pytest.approx(2.20, abs=0.35)
    assert scalars["avg_improvement"] == pytest.approx(1.43, abs=0.25)
    assert (scalars["svt_max_kqps_in_sla"]
            > scalars["base_max_kqps_in_sla"])
    for series in fig8["series"]:
        p99s = [y for _x, y in series["points"]]
        assert p99s == sorted(p99s), series["name"]


def test_fig9_tpcc_throughput(documents):
    fig9 = documents["fig9"]
    scalars = fig9["scalars"]
    assert scalars["baseline_ktpm"] == pytest.approx(6.37, rel=0.03)
    assert scalars["speedup"] == pytest.approx(1.18, abs=0.05)
    hw = tpcc.run(ExecutionMode.HW_SVT,
                  transactions=fig9["params"]["transactions"])
    assert hw.ktpm > scalars["svt_ktpm"]


def test_fig10_dropped_frames(documents):
    scalars = documents["fig10"]["scalars"]
    base120 = scalars["dropped_120_baseline"]
    svt120 = scalars["dropped_120_svt"]
    assert scalars["dropped_24_baseline"] == 0
    assert scalars["dropped_24_svt"] == 0
    assert scalars["dropped_60_baseline"] <= 8
    assert scalars["dropped_60_svt"] <= scalars["dropped_60_baseline"]
    assert base120 == pytest.approx(40, abs=10)
    assert svt120 == pytest.approx(26, abs=8)
    # Paper: "SVt brings frame drops down to 0.65x at 120 FPS".
    assert svt120 / base120 == pytest.approx(0.65, abs=0.18)


# -- section studies -------------------------------------------------------


def test_deadlock_outcome_matches_section_5_3(documents):
    # §5.3: without the wait-loop interrupt check the trap never
    # completes; with it, the blocked trap is injected and handling
    # finishes.
    scalars = documents["sec53"]["scalars"]
    assert not scalars["without_fix_completed"]
    assert scalars["with_fix_completed"]
    assert scalars["with_fix_blocked_traps_injected"] > 0


def test_sec61_channel_observations(documents):
    scalars = documents["sec61"]["scalars"]
    observations = {key: holds for key, holds in scalars.items()
                    if key.startswith("observation_")}
    assert len(observations) == 5
    assert all(observations.values())


def test_sec61_mechanisms_on_nested_cpuid(documents):
    scalars = documents["sec61"]["scalars"]
    assert abs((scalars["baseline_us"] - scalars["mwait_us"]) - 2.0) < 0.2
    assert abs(scalars["mwait_speedup"] - 1.23) < 0.02
    assert scalars["polling_speedup"] < 1.05


def test_sec62_vmcs_access_share(documents):
    # Small single-digit share: paravirtualizing VMCS accesses would
    # barely move the needle, exactly the paper's point.
    assert 0.01 < documents["sec62"]["scalars"]["vmcs_access_share"] < 0.10


# -- ablations -------------------------------------------------------------


def test_ablation_lazy_split(documents):
    scalars = documents["ablation_lazy_split"]["scalars"]
    # Baseline total is invariant (the split moves cost between rows).
    for fraction in AblationLazySplit.FRACTIONS:
        assert with_lazy_fraction(fraction).table1_total() == 10_400
    # Monotonic: more lazy share -> more HW SVt benefit.
    ordered = [scalars[f"hw_speedup_at_{fraction:.3f}"]
               for fraction in AblationLazySplit.FRACTIONS]
    assert ordered == sorted(ordered)
    # No lazy share cannot explain the paper's 1.94x...
    assert scalars["hw_speedup_at_0.000"] < 1.5
    # ...our calibrated share reproduces it.
    assert scalars["hw_speedup_at_0.423"] == pytest.approx(1.94, abs=0.02)


def test_ablation_hw_model_cross_check(documents):
    scalars = documents["ablation_hw_model"]["scalars"]
    direct = scalars["direct_us"]
    assert scalars["scaled_from_baseline_us"] == pytest.approx(direct,
                                                               rel=0.03)
    assert scalars["scaled_from_sw_us"] == pytest.approx(direct, rel=0.03)


def test_ablation_wait_mechanism_and_placement(documents):
    scalars = documents["ablation_wait"]["scalars"]
    # Placement dominates: NUMA-placed channels are clearly worst.
    for mechanism in AblationWait.MECHANISMS:
        assert (scalars[f"numa_{mechanism}_us"]
                > scalars[f"smt_{mechanism}_us"]), mechanism
    # On SMT, mwait beats mutex (blocking wake is costly per trap).
    assert scalars["smt_mwait_us"] < scalars["smt_mutex_us"]
    # The calibrated configuration is the paper's choice.
    assert scalars["smt_mwait_us"] == pytest.approx(8.46, abs=0.05)


def test_ablation_context_multiplexing(documents):
    multiplex = documents["ablation_multiplex"]
    scalars = multiplex["scalars"]
    three, mux = scalars["hw_svt_3ctx_us"], scalars["hw_svt_2ctx_mux_us"]
    # Multiplexing L1 gives up the L0<->L1 acceleration but keeps the
    # L2<->L0 one: the result must sit strictly between.
    assert three < mux < scalars["baseline_us"]
    # The surviving win is the L2-side switch+lazy elision.
    costs = costmodels.resolve(multiplex["params"]["cost_model"])
    expected_mux_ns = (three * 1000 + costs.switch_l0_l1
                       + costs.l1_lazy_switch)
    assert mux * 1000 == pytest.approx(expected_mux_ns, rel=0.01)


def test_ablation_level_bypass(documents):
    scalars = documents["ablation_bypass"]["scalars"]
    assert scalars["bypassed_exits"] >= 20
    # Bypass removes the transforms and L0 handler entirely: expected
    # cost ~= guest work + 2 stall/resume + L1's pure handler.
    expected_us = (50 + 2 * 20 + 1120) / 1000.0
    assert scalars["hw_svt_bypass_us"] == pytest.approx(expected_us,
                                                        rel=0.05)
    # Ordering: baseline > HW SVt > bypass; bypass lands below even the
    # single-level software path (no memory switches at all).
    assert (scalars["baseline_us"] > scalars["hw_svt_us"]
            > scalars["hw_svt_bypass_us"])
    assert scalars["hw_svt_bypass_us"] < scalars["single_level_us"]


def test_ablation_deep_nesting(documents):
    model = DeepNestingModel()
    base, svt = model.sanity_check_against_simulation()
    assert base == 10_400 and svt == pytest.approx(5360, abs=20)
    deep = documents["deep"]
    rows = _rows(deep)
    baseline_us = {label: float(values[0])
                   for label, values in rows.items()}
    svt_us = {label: float(values[1]) for label, values in rows.items()}
    assert baseline_us["L5"] / baseline_us["L2"] > 10    # geometric
    for depth in range(2, 6):
        assert 1.8 < deep["scalars"][f"speedup_l{depth}"] < 2.2
    # Multiplexing: the 3-context core is worse than the 8-context one
    # at depth >= 3 but still beats the baseline.
    narrow_l5 = model.svt_exit_ns(5, hardware_contexts=3) / 1000.0
    assert narrow_l5 > svt_us["L5"]
    assert narrow_l5 < baseline_us["L5"]


def test_ablation_coexistence(documents):
    assert 10_000 < documents["coexist"]["scalars"][
        "crossover_traps_per_s"] < 100_000
    fleet = DynamicPolicy(CoexistConfig()).fleet_throughput(
        [0, 1_000, 5_000, 20_000, 40_000, 60_000, 90_000, 120_000])
    assert fleet["dynamic"] > fleet["all_smt"]
    assert fleet["dynamic"] > fleet["all_svt"]


def test_ablation_related_work(documents):
    related = documents["related"]
    speedups = {key[:-len("_speedup")]: value
                for key, value in related["scalars"].items()}
    caveats = {name: values[2] for name, values in _rows(related).items()}
    # Everyone beats baseline; only SVt carries no caveats.
    assert speedups["baseline"] == 1.0
    assert all(speedup >= 1.0 for speedup in speedups.values())
    assert caveats["svt"] == "none"
    assert all(caveats[name] != "none"
               for name in ("sriov", "sidecore", "eli"))
    # Coverage matters: on a broad exit mix SVt wins outright.
    broad = evaluate(IoOpShape(device_exits=1, interrupt_exits=1,
                               other_exits=5))
    fastest = min(broad.items(), key=lambda item: item[1].op_ns)
    assert fastest[0] == "svt"


def test_ablation_security_coresidency(documents):
    scalars = documents["ablation_security"]["scalars"]
    assert scalars["is_svt_safe"]
    assert scalars["smt_exposure_ns"] > 0
    # The audit really tracked multiple domains bouncing on the core.
    assert scalars["domains_seen"] >= 2


def _l2_trap_us(mode, instruction, repeat):
    machine = Machine(mode=mode)
    machine.run_program(isa.Program([instruction]))
    result = machine.run_program(isa.Program([instruction], repeat=repeat))
    return result.elapsed_ns / repeat / 1000.0


def test_ablation_l3_functional(documents):
    l3 = documents["l3"]
    scalars = l3["scalars"]
    repeat = l3["params"]["repeat"]
    timer = isa.wrmsr(MSR_TSC_DEADLINE, 10**9)
    base_cpuid2 = _l2_trap_us(ExecutionMode.BASELINE, isa.cpuid(), repeat)
    base_timer2 = _l2_trap_us(ExecutionMode.BASELINE, timer, repeat)
    hw_timer2 = _l2_trap_us(ExecutionMode.HW_SVT, timer, repeat)
    # Aux-free traps cost the same at both depths (one reflection)...
    assert scalars["baseline_cpuid_us"] == pytest.approx(base_cpuid2,
                                                         rel=0.02)
    # ...aux-heavy ones blow up with depth (the Turtles effect).
    assert scalars["baseline_timer_us"] > 2.0 * base_timer2
    # SVt's advantage grows with depth on aux-heavy traps.
    hw2 = base_timer2 / hw_timer2
    hw3 = scalars["baseline_timer_us"] / scalars["hw_svt_timer_us"]
    assert hw3 > hw2
