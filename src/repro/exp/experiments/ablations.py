"""The ablation studies as registered experiments.

A-C sweep the Table-1 calibration and the SW SVt channel; D, E and I
price the §3.1 and §3.4 arguments on the live machine: SVt past the
core's SMT width, the level bypass, and cross-domain co-residency.  The
remaining ablations exercise machinery that already has a registered
experiment (deep nesting, coexistence, related work, L3), so their
claims are asserted on those documents.
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.core.switch import HwSvtEngine
from repro.core.system import Machine
from repro.cpu import isa
from repro.cpu.costmodels import default_model
from repro.cpu.costs import CostModel
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Table
from repro.sim.trace import Category

# -- shared drivers -------------------------------------------------------

#: Table-1 parts 3/5 totals (ns): the pool the lazy share is carved from.
_PART3_NS, _PART5_NS = 4890, 1960


def with_lazy_fraction(fraction: float) -> CostModel:
    """CostModel treating ``fraction`` of Table-1 parts 3/5 as lazy."""
    l0_lazy = int(_PART3_NS * fraction)
    l1_lazy = int(_PART5_NS * fraction)
    base = default_model()
    l0_pure = dict(base.l0_handler_pure)
    l1_pure = dict(base.l1_handler_pure)
    l0_pure["CPUID"] = _PART3_NS - l0_lazy
    l1_pure["CPUID"] = _PART5_NS - l1_lazy
    return base.with_overrides(
        l0_lazy_switch=l0_lazy,
        l1_lazy_switch=l1_lazy,
        l0_handler_pure=l0_pure,
        l1_handler_pure=l1_pure,
    )


def hw_speedup(costs: CostModel, iterations: int = 10) -> float:
    """Nested-cpuid baseline/HW-SVt ratio under a cost model."""
    times: dict[str, float] = {}
    for mode in (ExecutionMode.BASELINE, ExecutionMode.HW_SVT):
        machine = Machine(mode=mode, costs=costs)
        machine.run_program(isa.Program([isa.cpuid()]))
        result = machine.run_program(
            isa.Program([isa.cpuid()], repeat=iterations))
        times[mode] = result.ns_per_instruction
    return times[ExecutionMode.BASELINE] / times[ExecutionMode.HW_SVT]


def traced_run(mode: str, repeat: int = 20) -> tuple[float, Any]:
    """(ns_per_op, trace-delta) of a nested cpuid loop in ``mode``."""

    machine = Machine(mode=mode)
    machine.run_program(isa.Program([isa.cpuid()]))        # warmup
    before = machine.tracer.snapshot()
    start = machine.sim.now
    machine.run_program(isa.Program([isa.cpuid()], repeat=repeat))
    elapsed = machine.sim.now - start

    class _Delta:
        totals = {
            key: machine.tracer.totals[key] - before.get(key, 0)
            for key in machine.tracer.totals
        }

        @staticmethod
        def total(*categories: str) -> int:
            if not categories:
                return sum(_Delta.totals.values())
            return sum(_Delta.totals.get(c, 0) for c in categories)

    return elapsed / repeat, _Delta


def hw_model_cross_check(repeat: int = 20) -> dict[str, Any]:
    """Both roads to HW SVt, in ns/op: the paper's §6 scaling applied to
    baseline and SW SVt traces, and the direct simulation."""
    from repro.analysis.hw_model import scale_sw_to_hw

    _, baseline_trace = traced_run(ExecutionMode.BASELINE, repeat)
    _, sw_trace = traced_run(ExecutionMode.SW_SVT, repeat)
    direct_ns, _ = traced_run(ExecutionMode.HW_SVT, repeat)
    return {
        "scaled_from_baseline_ns": scale_sw_to_hw(baseline_trace) / repeat,
        "scaled_from_sw_ns": scale_sw_to_hw(sw_trace) / repeat,
        "direct_ns": direct_ns,
    }


def cpuid_us(machine: Machine, iterations: int = 20,
             level: int = 2) -> float:
    """µs per cpuid at ``level`` after one warm-up cpuid."""
    machine.run_program(isa.Program([isa.cpuid()]), level=level)
    result = machine.run_program(
        isa.Program([isa.cpuid()], repeat=iterations), level=level)
    return result.ns_per_instruction / 1000.0


def channel_cpuid_us(placement: str, mechanism: str,
                     iterations: int = 20) -> float:
    """Nested cpuid µs under SW SVt with a given channel variant."""
    return cpuid_us(Machine(mode=ExecutionMode.SW_SVT,
                            placement=placement,
                            wait_mechanism=mechanism), iterations)


class MultiplexedL1Engine(HwSvtEngine):
    """HW SVt with only two hardware contexts (paper §3.1).

    L0 and L2 keep their contexts, so the L2<->L0 hot path stays a
    stall/resume.  L1 is multiplexed: it is evicted and reloaded around
    every reflection, paying a memory context switch plus its lazy
    save/restore like the baseline.
    """

    def enter_l1(self, exit_info: Any, vcpu: Any) -> None:
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)
        self.core.svt_resume()

    def leave_l1(self, vcpu: Any) -> None:
        self.core.svt_trap()
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)

    def charge_l1_lazy(self) -> None:
        self._charge(self.costs.l1_lazy_switch, Category.L1_LAZY_SWITCH)

    def aux_exit_begin(self) -> None:
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)
        self.core.svt_trap()

    def aux_exit_end(self) -> None:
        self.core.svt_resume()
        self._charge(self.costs.switch_l0_l1_each, Category.SWITCH_L0_L1)


def multiplexed_l1_engine(sim: Any, tracer: Any, costs: CostModel,
                          core: Any, channels: Any) -> MultiplexedL1Engine:
    """``Machine(engine_factory=)`` for the 2-context SVt core."""
    return MultiplexedL1Engine(sim, tracer, costs, core)


# -- registered experiments ----------------------------------------------


@register
class AblationLazySplit(Experiment):
    """Ablation A: sweep the lazy/pure handler split of Table 1."""

    name = "ablation_lazy_split"
    title = "Ablation A: lazy/pure handler split"
    description = "HW SVt speedup vs the lazy share of Table-1 parts 3/5"
    defaults = {"iterations": 10}

    FRACTIONS = (0.0, 0.2, 0.423, 0.6, 0.8)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(f"{fraction:.3f}" for fraction in self.FRACTIONS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        costs = with_lazy_fraction(float(cell))
        return {
            "baseline_us": costs.table1_total() / 1000.0,
            "hw_speedup": hw_speedup(costs, params["iterations"]),
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Ablation A: HW SVt speedup vs lazy share "
                      "(paper 1.94x pins the calibrated 0.423)",
                columns=("lazy share of parts 3+5", "baseline (us)",
                         "HW SVt speedup"),
                rows=[
                    Row(cell,
                        (f"{payloads[cell]['baseline_us']:.2f}",
                         f"{payloads[cell]['hw_speedup']:.2f}x"))
                    for cell in self.cells(params)
                ],
            )],
            scalars={
                f"hw_speedup_at_{cell}": payloads[cell]["hw_speedup"]
                for cell in self.cells(params)
            },
            paper={"hw_speedup_at_0.423": 1.94},
        )


@register
class AblationHwModel(Experiment):
    """Ablation B: the paper's HW-model scaling vs direct simulation."""

    name = "ablation_hw_model"
    title = "Ablation B: HW-model methodologies"
    description = "paper's Sec.-6 scaling vs simulating the hardware"
    defaults = {"repeat": 20}
    smoke = {"repeat": 10}

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        return hw_model_cross_check(repeat=params["repeat"])

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        payload = payloads["all"]
        rows = [
            ("scaled from baseline trace",
             payload["scaled_from_baseline_ns"]),
            ("scaled from SW SVt trace", payload["scaled_from_sw_ns"]),
            ("direct HW SVt simulation", payload["direct_ns"]),
        ]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Ablation B: two roads to HW SVt",
                columns=("Methodology", "nested cpuid (us)"),
                rows=[Row(label, (f"{ns / 1000.0:.2f}",))
                      for label, ns in rows],
            )],
            scalars={
                "scaled_from_baseline_us":
                    payload["scaled_from_baseline_ns"] / 1000.0,
                "scaled_from_sw_us":
                    payload["scaled_from_sw_ns"] / 1000.0,
                "direct_us": payload["direct_ns"] / 1000.0,
            },
        )


@register
class AblationWait(Experiment):
    """Ablation C: wait mechanism x placement for the SW SVt channel."""

    name = "ablation_wait"
    title = "Ablation C: wait mechanism x placement"
    description = "nested cpuid with every channel mechanism/placement"
    defaults = {"iterations": 20}
    smoke = {"iterations": 10}

    PLACEMENTS = ("smt", "core", "numa")
    MECHANISMS = ("polling", "mwait", "mutex")

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(
            f"{placement}:{mechanism}"
            for placement in self.PLACEMENTS
            for mechanism in self.MECHANISMS
        )

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        placement, mechanism = cell.split(":")
        return channel_cpuid_us(placement, mechanism,
                                params["iterations"])

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Nested cpuid with SW SVt channel variants (raw "
                      "channel cost; polling interference handled in "
                      "sec61)",
                columns=("placement",) + self.MECHANISMS,
                rows=[
                    Row(placement, tuple(
                        f"{payloads[f'{placement}:{mech}']:.2f} us"
                        for mech in self.MECHANISMS
                    ))
                    for placement in self.PLACEMENTS
                ],
            )],
            scalars={
                cell.replace(":", "_") + "_us": payloads[cell]
                for cell in self.cells(params)
            },
            paper={"smt_mwait_us": 8.46},
        )


def _speedup_rows(configurations: tuple[tuple[str, str], ...],
                  payloads: dict[str, Any]) -> list[Row]:
    """``(label, cpuid µs, speedup vs the baseline cell)`` rows."""
    base = payloads["baseline"]["cpuid_us"]
    return [
        Row(label, (f"{payloads[cell]['cpuid_us']:.2f}",
                    f"{base / payloads[cell]['cpuid_us']:.2f}x"))
        for cell, label in configurations
    ]


@register
class AblationMultiplex(Experiment):
    """Ablation D: SVt with fewer hardware contexts than levels."""

    name = "ablation_multiplex"
    title = "Ablation D: context multiplexing"
    description = "nested cpuid when L1 must share a hardware context"

    ITERATIONS = 20
    CONFIGURATIONS = (
        ("baseline", "baseline"),
        ("hw_svt_3ctx", "HW SVt, 3 contexts"),
        ("hw_svt_2ctx_mux", "HW SVt, 2 contexts (L1 multiplexed)"),
    )

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(cell for cell, _label in self.CONFIGURATIONS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        if cell == "baseline":
            machine = Machine(ExecutionMode.BASELINE)
        elif cell == "hw_svt_3ctx":
            machine = Machine(ExecutionMode.HW_SVT)
        else:
            machine = Machine(ExecutionMode.HW_SVT,
                              engine_factory=multiplexed_l1_engine)
        return {"cpuid_us": cpuid_us(machine, self.ITERATIONS)}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="SVt with fewer hardware contexts than levels "
                      "(paper Sec. 3.1)",
                columns=("Configuration", "cpuid (us)", "Speedup"),
                rows=_speedup_rows(self.CONFIGURATIONS, payloads),
            )],
            scalars={f"{cell}_us": payloads[cell]["cpuid_us"]
                     for cell in self.cells(params)},
        )


@register
class AblationBypass(Experiment):
    """Ablation E: the §3.1 level bypass against a single-level trap."""

    name = "ablation_bypass"
    title = "Ablation E: level bypass"
    description = "nested cpuid with direct L2->L1 trap delivery"

    ITERATIONS = 20
    CONFIGURATIONS = (
        ("baseline", "baseline nested"),
        ("hw_svt", "HW SVt"),
        ("hw_svt_bypass", "HW SVt + L0 bypass (Sec. 3.1)"),
        ("single_level", "single-level trap (the floor)"),
    )

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(cell for cell, _label in self.CONFIGURATIONS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        if cell == "hw_svt_bypass":
            from repro.core.bypass import install_bypass

            machine = Machine(ExecutionMode.HW_SVT)
            engine = install_bypass(machine)
            return {"cpuid_us": cpuid_us(machine, self.ITERATIONS),
                    "bypassed_exits": engine.bypassed_exits}
        mode = (ExecutionMode.HW_SVT if cell == "hw_svt"
                else ExecutionMode.BASELINE)
        level = 1 if cell == "single_level" else 2
        return {"cpuid_us": cpuid_us(Machine(mode), self.ITERATIONS,
                                     level)}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        scalars: dict[str, Any] = {
            f"{cell}_us": payloads[cell]["cpuid_us"]
            for cell in self.cells(params)
        }
        scalars["bypassed_exits"] = \
            payloads["hw_svt_bypass"]["bypassed_exits"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="How close bypass gets to full hardware nested "
                      "support",
                columns=("Configuration", "cpuid (us)",
                         "Speedup vs baseline"),
                rows=_speedup_rows(self.CONFIGURATIONS, payloads),
            )],
            scalars=scalars,
        )


@register
class AblationSecurity(Experiment):
    """Ablation I: the §3.4 co-residency argument, measured."""

    name = "ablation_security"
    title = "Ablation I: Sec. 3.4 security"
    description = "cross-domain co-residency under SVt vs SMT"

    #: The audited program: a nested trap, then guest work, 25 times.
    REPEAT = 25
    GUEST_WORK = 2000

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.core.security import (
            audit_machine_run,
            smt_coscheduling_exposure,
        )

        machine = Machine(mode=ExecutionMode.HW_SVT)
        program = isa.Program([isa.cpuid(), isa.alu(self.GUEST_WORK)],
                              repeat=self.REPEAT)
        auditor = audit_machine_run(machine, program)
        elapsed = machine.sim.now
        return {
            "run_ns": elapsed,
            "svt_coresidency_ns": auditor.cross_domain_coresidency_ns(),
            "smt_exposure_ns": smt_coscheduling_exposure(elapsed, elapsed),
            "domains": sorted({interval.domain for interval
                               in auditor._all_intervals()}),
            "is_svt_safe": auditor.is_svt_safe(),
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        payload = payloads["all"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Side-channel exposure window over one run "
                      f"({payload['run_ns'] / 1000:.0f} us of execution)",
                columns=("Configuration", "cross-domain co-residency"),
                rows=[
                    Row("SMT co-scheduling two tenants",
                        (f"{payload['smt_exposure_ns'] / 1000:.1f} us "
                         "(the whole run)",)),
                    Row("SVt (three domains on one core)",
                        (f"{payload['svt_coresidency_ns']} ns",)),
                ],
            )],
            scalars={
                "run_ns": payload["run_ns"],
                "svt_coresidency_ns": payload["svt_coresidency_ns"],
                "smt_exposure_ns": payload["smt_exposure_ns"],
                "domains_seen": len(payload["domains"]),
                "is_svt_safe": payload["is_svt_safe"],
            },
            notes=("domains seen: " + ", ".join(payload["domains"]),),
        )
