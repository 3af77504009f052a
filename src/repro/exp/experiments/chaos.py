"""The chaos experiment: a resilience matrix over fault rate x mode.

Each cell arms a seeded :class:`~repro.faults.plan.FaultPlan` on a fresh
:class:`~repro.core.system.Machine` and runs a nested cpuid loop while
the injector drops/duplicates/delays/corrupts ring commands (SW SVt),
fires spurious interrupts, and flips VMCS fields (all modes).  The cell
payload is the injector's scoreboard: injected/recovered counts per
fault class, watchdog activity, degradations and deadlocks.

Determinism: every cell's randomness derives from ``seed`` via per-site
streams, so the merged result is byte-identical at any ``--jobs``; the
rate-0.0 column takes no draws at all and must reproduce the fault-free
machine exactly (asserted by ``tests/faults/test_chaos_experiment.py``).
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Table


def parse_rates(rates: str) -> tuple[float, ...]:
    """Parse the comma-separated ``rates`` parameter (a string because
    experiment params must be JSON scalars)."""
    return tuple(float(part) for part in str(rates).split(",") if part)


@register
class Chaos(Experiment):
    """Fault-rate sweep across execution modes."""

    name = "chaos"
    title = "Chaos: resilience under seeded fault injection"
    description = ("per-fault-rate injected/recovered/degraded/deadlocked "
                   "matrix across BASELINE, SW SVt and HW SVt")
    defaults = {"iterations": 30, "seed": 2019,
                "rates": "0.0,0.02,0.1,0.3"}
    smoke = {"iterations": 10, "seed": 2019, "rates": "0.0,0.1"}

    MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT,
             ExecutionMode.HW_SVT)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(
            f"{mode}:{rate:g}"
            for mode in self.MODES
            for rate in parse_rates(params["rates"])
        )

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.faults.plan import FaultPlan
        from repro.faults.scenario import run_chaos_cell

        mode, rate = cell.rsplit(":", 1)
        plan = FaultPlan(seed=int(params["seed"]), rate=float(rate))
        return run_chaos_cell(mode, plan,
                              iterations=int(params["iterations"]))

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        cells = self.cells(params)
        rows = []
        for cell in cells:
            payload = payloads[cell]
            counters = payload["counters"]
            rows.append(Row(cell, (
                str(payload["injected_total"]),
                str(payload["recovered_total"]),
                str(counters["degraded"]),
                str(counters["deadlocked"]),
                str(payload["retransmissions"]),
                f"{payload['ns_per_op'] / 1000.0:.2f}",
            )))
        injected = sum(payloads[c]["injected_total"] for c in cells)
        recovered = sum(payloads[c]["recovered_total"] for c in cells)
        degraded = sum(payloads[c]["counters"]["degraded"] for c in cells)
        deadlocked = sum(
            payloads[c]["counters"]["deadlocked"] for c in cells)
        unresolved = injected - recovered - degraded - deadlocked
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Resilience matrix (mode:rate cells; every "
                      "injected fault must end recovered, degraded or "
                      "deadlocked)",
                columns=("mode:rate", "injected", "recovered",
                         "degraded", "deadlocked", "retransmits",
                         "nested cpuid (us)"),
                rows=rows,
            )],
            scalars={
                "injected_total": injected,
                "recovered_total": recovered,
                "degraded_total": degraded,
                "deadlocked_total": deadlocked,
                "unresolved_total": unresolved,
                "recovery_ratio": (recovered / injected) if injected
                else 1.0,
            },
            notes=("rate 0.0 cells are byte-identical to a fault-free "
                   "machine (zero rng draws); see docs/robustness.md",),
        )
