"""The paper's claims, asserted on the golden Result documents.

Every number the paper reports is a row of :mod:`repro.exp.claims`, with
its check; ``test_claim`` asserts each row on the live documents that
``tests/golden/experiments.json`` pins (the session ``documents``
fixture), so a change that keeps the golden file but breaks a claim
cannot exist: regenerating the golden still fails here.

The hand-written tests below check what a row cannot: orderings,
monotonicity, derived quantities and library calls.  They take every
paper number from the rows.  A few quantities are in no document; for
those the test makes the one library call that computes them (the fleet
policy, the 3-context deep rows, depth-2 traps, the broad related-work
exit mix, Fig. 9's HW SVt throughput, the lazy split's exact ns totals,
the cost model's L0<->L1 switch constants and Table 4's thread counts).
"""

import pytest

from repro.config import paper_machine
from repro.core.coexist import CoexistConfig, DynamicPolicy
from repro.core.mode import ExecutionMode
from repro.core.related_work import IoOpShape, evaluate
from repro.core.system import Machine
from repro.cpu import costmodels, isa
from repro.exp import claims, registry
from repro.exp.experiments.ablations import (
    AblationLazySplit,
    AblationWait,
    with_lazy_fraction,
)
from repro.exp.experiments.figures import FIG7_METRICS
from repro.exp.registry import RunContext
from repro.virt.deep import DeepNestingModel
from repro.virt.hypervisor import MSR_TSC_DEADLINE
from repro.workloads import tpcc


@pytest.fixture(scope="module")
def table3():
    """The live Table 3 document (it counts this repository's lines, so
    the golden file does not pin it)."""
    experiment = registry.get("table3")
    return experiment.run(RunContext.create(experiment.resolve())).to_dict()


def _rows(document):
    """``{row label: row values}`` of a document's first table."""
    return {row["label"]: row["values"]
            for row in document["tables"][0]["rows"]}


def locate(document, at):
    """The value at a claim's location: a scalar, or the cell in the
    ``(row label, column)`` of one of the document's tables.  Raises
    ``KeyError`` when the document has no such place."""
    if isinstance(at, str):
        return document["scalars"][at]
    label, column = at
    for table in document["tables"]:
        if column in table["columns"][1:]:
            for row in table["rows"]:
                if row["label"] == label:
                    return row["values"][table["columns"].index(column) - 1]
    raise KeyError(at)


def holds(check, measured, expected):
    """Whether ``measured`` passes a claim's ``check``."""
    kind, *args = check
    if kind == "eq":
        return measured == expected
    if isinstance(measured, str):
        measured = float(measured)
    if kind == "rel":
        return measured == pytest.approx(expected, rel=args[0])
    if kind == "abs":
        return measured == pytest.approx(expected, abs=args[0])
    if kind == "abs<":
        return abs(measured - expected) < args[0]
    low, high = args
    if kind == "closed":
        return ((low is None or low <= measured)
                and (high is None or measured <= high))
    assert kind == "open", check
    return ((low is None or low < measured)
            and (high is None or measured < high))


def label(claim):
    """``experiment:location``, a claim's test id."""
    at = "/".join(claim.at) if isinstance(claim.at, tuple) else claim.at
    return f"{claim.experiment}:{at}"


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=label)
def test_claim(documents, claim):
    kind, *args = claim.check
    if kind == "test":
        # Checked by the named test below, from the row's paper value.
        assert args[0].startswith("test_") and callable(globals()[args[0]])
        return
    measured = locate(documents[claim.experiment], claim.at)
    expected = claim.paper if claim.target is None else claim.target
    assert holds(claim.check, measured, expected), (
        f"{label(claim)}: measured {measured!r}, paper {claim.paper!r}, "
        f"check {claim.check}")


def test_claims_cover_every_paper_value(documents, table3):
    """Every key of every ``paper`` mapping has exactly one row, every
    row's location exists in its document, and labels are unique."""
    live = {**documents, "table3": table3}
    labels = [label(claim) for claim in claims.CLAIMS]
    assert len(labels) == len(set(labels))
    assert {claim.experiment for claim in claims.CLAIMS} <= set(live)
    for name, document in sorted(live.items()):
        locations = [claim.at for claim in claims.rows(name)]
        for key in document["paper"]:
            assert locations.count(key) == 1, f"{name}:{key}"
        for claim in claims.rows(name):
            if claim.check[0] != "test":
                locate(document, claim.at)


# -- tables ----------------------------------------------------------------


def test_table1_breakdown(documents):
    # The table has exactly the paper's six parts.
    parts = [label for label, *_ in claims.TABLE1_PARTS]
    assert sorted(_rows(documents["table1"])) == sorted(parts)


def test_table1_breakdown_matches_paper(documents):
    scalars = documents["table1"]["scalars"]
    total = sum(scalars[key] for _label, key, *_ in claims.TABLE1_PARTS)
    assert total == pytest.approx(
        claims.paper_value("table1", "total_us"), rel=0.01)


def test_table3_prototype_footprint(table3):
    # Same order of magnitude, same ranking: the role the paper's
    # prototype touched most (KVM) dominates ours too.
    ours = {key[:-len("_loc")]: loc
            for key, loc in table3["scalars"].items()}
    paper = {role: claims.paper_value("table3", f"{role}_added")
             - claims.paper_value("table3", f"{role}_removed")
             for role in ours}
    top = max(paper, key=paper.get)
    assert all(ours[top] > loc for role, loc in ours.items() if role != top)
    for loc in ours.values():
        assert 50 <= loc <= 5000


def test_table4_machine_parameters(documents):
    levels = [claim.at[0] for claim in claims.rows("table4")
              if isinstance(claim.at, tuple)]
    assert sorted(_rows(documents["table4"])) == sorted(levels)
    machine = paper_machine()
    assert machine.host.total_hw_threads \
        == claims.paper_value("table4", "host_hw_threads")
    # "experiments run in two virtual CPUs in L2"
    assert machine.vm(2).usable_vcpus \
        == claims.paper_value("table4", "l2_usable_vcpus")


# -- figures ---------------------------------------------------------------


def test_fig6_cpuid_bars(documents):
    scalars = documents["fig6"]["scalars"]
    assert scalars["l0_us"] < scalars["l1_us"] < scalars["hw_svt_us"]


def test_fig6_speedups_match_paper(documents):
    # The speedup rows are the ratios of the bars.
    bars = documents["fig6"]["scalars"]
    assert bars["hw_speedup"] == bars["l2_us"] / bars["hw_svt_us"]
    assert bars["sw_speedup"] == bars["l2_us"] / bars["sw_svt_us"]


def test_fig6_bars_are_ordered_like_the_paper(documents):
    # Deeper virtualization is slower; both SVt variants beat baseline
    # L2 and HW SVt beats SW SVt.
    bars = documents["fig6"]["scalars"]
    assert bars["l0_us"] < bars["l1_us"] < bars["l2_us"]
    assert bars["hw_svt_us"] < bars["sw_svt_us"] < bars["l2_us"]


@pytest.mark.parametrize("metric", sorted(FIG7_METRICS))
def test_fig7_subsystem(documents, metric):
    # HW SVt gains more than SW SVt on the metric iff it does in the
    # paper.
    scalars = documents["fig7"]["scalars"]
    paper = claims.paper("fig7")
    hw, sw = f"{metric}_hw_speedup", f"{metric}_sw_speedup"
    assert (scalars[hw] > scalars[sw]) == (paper[hw] > paper[sw])


def test_fig7_disk_randrd_bandwidth(documents):
    # The deliberate deviation keeps the paper's read/write asymmetry:
    # reads gain more from SW SVt than writes.
    scalars = documents["fig7"]["scalars"]
    paper = claims.paper("fig7")
    read = "disk_randrd_bandwidth_sw_speedup"
    write = "disk_randwr_bandwidth_sw_speedup"
    assert (scalars[read] > scalars[write]) == (paper[read] > paper[write])


def test_fig8_paper_claims(documents):
    """Paper Fig. 8 (§6.3.1): more load within the SLA under SVt,
    in-SLA maxima measured against the paper's SLA, and latency curves
    that rise with load."""
    fig8 = documents["fig8"]
    scalars = fig8["scalars"]
    assert (scalars["svt_max_kqps_in_sla"]
            > scalars["base_max_kqps_in_sla"])
    sla_us = claims.paper_value("fig8", "sla_us")
    for series, system in zip(fig8["series"], ("base", "svt")):
        meeting = [load for load, p99 in series["points"] if p99 <= sla_us]
        assert scalars[f"{system}_max_kqps_in_sla"] == max(meeting)
        p99s = [y for _x, y in series["points"]]
        assert p99s == sorted(p99s), series["name"]


def test_fig9_tpcc_throughput(documents):
    fig9 = documents["fig9"]
    hw = tpcc.run(ExecutionMode.HW_SVT,
                  transactions=fig9["params"]["transactions"])
    assert hw.ktpm > fig9["scalars"]["svt_ktpm"]


def test_fig10_dropped_frames(documents):
    scalars = documents["fig10"]["scalars"]
    assert scalars["dropped_60_svt"] <= scalars["dropped_60_baseline"]
    # Paper: SVt brings frame drops down by the row's ratio at 120 FPS.
    ratio = scalars["dropped_120_svt"] / scalars["dropped_120_baseline"]
    assert ratio == pytest.approx(
        claims.paper_value("fig10", "drop_ratio_120"), abs=0.18)


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
    assert len(observations) == claims.paper_value("sec61", "observations")
    assert all(observations.values())


def test_sec61_mechanisms_on_nested_cpuid(documents):
    # The mwait implementation offers the paper's reduction; polling
    # offers very little acceleration.
    scalars = documents["sec61"]["scalars"]
    saving = claims.paper_value("sec61", "mwait_saving_us")
    assert abs((scalars["baseline_us"] - scalars["mwait_us"]) - saving) \
        < 0.2
    assert scalars["polling_speedup"] < 1.05


# -- ablations -------------------------------------------------------------


def test_ablation_lazy_split(documents):
    scalars = documents["ablation_lazy_split"]["scalars"]
    # Baseline total is invariant (the split moves cost between rows).
    total_ns = round(claims.paper_value("table1", "total_us") * 1000)
    for fraction in AblationLazySplit.FRACTIONS:
        assert with_lazy_fraction(fraction).table1_total() == total_ns
    # Monotonic: more lazy share -> more HW SVt benefit.
    ordered = [scalars[f"hw_speedup_at_{fraction:.3f}"]
               for fraction in AblationLazySplit.FRACTIONS]
    assert ordered == sorted(ordered)
    # No lazy share cannot explain the paper's HW speedup (a row checks
    # that our calibrated share reproduces it).
    assert scalars["hw_speedup_at_0.000"] < 1.5


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
    assert base == round(claims.paper_value("table1", "total_us") * 1000)
    assert svt == pytest.approx(
        claims.paper_value("deep", "l2_svt_us") * 1000, abs=20)
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
