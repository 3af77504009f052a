"""Communication-channel microbenchmarks (paper §6.1).

The paper measures the latency of polling / mwait / mutex handoffs
against a function call, across thread placements and workload sizes,
and states five observations (numbers "not shown for brevity").  This
module sweeps the model in `repro.core.wait` and checks each observation,
plus the end-to-end conclusion: applying each mechanism to the SVt-thread
channel and measuring nested cpuid latency (the paper's Figure-6 bridge:
"the mwait implementation offers a reduction of around 2 us").
"""

from dataclasses import dataclass, field

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.core.wait import Placement, WaitMechanism, handoff
from repro.cpu import isa
from repro.cpu import costmodels

#: The five qualitative observations of §6.1, as short keys.
OBSERVATIONS = (
    "polling_fastest_small",
    "polling_steals_cycles_smt",
    "numa_order_of_magnitude",
    "mutex_wins_large_smt",
    "mwait_beats_mutex_large",
)


@dataclass
class ChannelSweep:
    """Raw sweep plus evaluated observations."""

    results: list = field(default_factory=list)
    observations: dict = field(default_factory=dict)

    def cell(self, mechanism, placement, workload_ns):
        for result in self.results:
            if (result.mechanism == mechanism
                    and result.placement == placement
                    and result.workload_ns == workload_ns):
                return result
        raise KeyError((mechanism, placement, workload_ns))


def sweep(costs=None, workloads=(0, 500, 2000, 10000, 50000, 200000)):
    """Full §6.1 grid with the five observations evaluated."""
    costs = costmodels.resolve(costs)
    out = ChannelSweep()
    for mechanism in WaitMechanism.ALL:
        for placement in Placement.ALL:
            for workload in workloads:
                out.results.append(
                    handoff(costs, mechanism, placement, workload)
                )

    small, large = workloads[0], workloads[-1]
    polling0 = out.cell(WaitMechanism.POLLING, Placement.SMT, small)
    mwait0 = out.cell(WaitMechanism.MWAIT, Placement.SMT, small)
    mutex0 = out.cell(WaitMechanism.MUTEX, Placement.SMT, small)
    polling_l = out.cell(WaitMechanism.POLLING, Placement.SMT, large)
    mwait_l = out.cell(WaitMechanism.MWAIT, Placement.SMT, large)
    mutex_l = out.cell(WaitMechanism.MUTEX, Placement.SMT, large)
    numa0 = out.cell(WaitMechanism.POLLING, Placement.NUMA, small)

    out.observations = {
        "polling_fastest_small": (
            polling0.response_ns <= mwait0.response_ns
            and polling0.response_ns <= mutex0.response_ns
        ),
        "polling_steals_cycles_smt": (
            polling_l.producer_ns > polling_l.workload_ns
        ),
        "numa_order_of_magnitude": (
            numa0.response_ns >= 8 * polling0.response_ns
        ),
        "mutex_wins_large_smt": mutex_l.total_ns < polling_l.total_ns,
        "mwait_beats_mutex_large": mwait_l.total_ns < mutex_l.total_ns,
    }
    return out


@dataclass(frozen=True)
class MechanismImpact:
    """End-to-end nested cpuid latency with each channel mechanism."""

    mechanism: str
    cpuid_us: float
    speedup_vs_baseline: float


def cpuid_with_mechanisms(costs=None, iterations=40):
    """Drive SW SVt with each wait mechanism (paper: polling "offers very
    little acceleration ... the mwait implementation offers a reduction
    of around 2 us (or 1.23x)")."""
    costs = costmodels.resolve(costs)
    program = isa.Program([isa.cpuid()], repeat=iterations)

    baseline_machine = Machine(mode=ExecutionMode.BASELINE, costs=costs)
    baseline_machine.run_program(isa.Program([isa.cpuid()]))
    baseline_us = (
        baseline_machine.run_program(program).ns_per_instruction / 1000.0
    )

    impacts = []
    for mechanism in (WaitMechanism.POLLING, WaitMechanism.MWAIT,
                      WaitMechanism.MUTEX):
        machine = Machine(mode=ExecutionMode.SW_SVT, costs=costs,
                          wait_mechanism=mechanism)
        machine.run_program(isa.Program([isa.cpuid()]))   # warmup
        before = machine.tracer.snapshot()
        result = machine.run_program(program)
        ns = result.ns_per_instruction
        if mechanism == WaitMechanism.POLLING:
            # The polling SVt-thread spins on the sibling hardware thread
            # the whole time L0/L2 execute there, stealing execution
            # resources from everything but L1's handling (which runs on
            # the SVt-thread itself) and the channel transfers.  Paper
            # §6.1: "the time between VM traps in L2 is always large
            # enough that polling's overheads shadow its low response
            # time".
            from repro.sim.trace import Category

            per_op = {k: v / iterations
                      for k, v in machine.tracer.since(before).items()}
            exempt = (per_op.get(Category.L1_HANDLER, 0)
                      + per_op.get(Category.CHANNEL, 0))
            inflatable = ns - exempt
            slowdown = 1.0 / (1.0 - costs.poll_smt_interference)
            ns = inflatable * slowdown + exempt
        us = ns / 1000.0
        impacts.append(MechanismImpact(
            mechanism=mechanism,
            cpuid_us=us,
            speedup_vs_baseline=baseline_us / us,
        ))
    return baseline_us, impacts
