"""Fleets of simulated stacks (multi-vCPU / multi-VM experiments).

The paper's Table-4 guests have several vCPUs and §4.1 sketches
per-context resources so "different SVt contexts of the same core [can]
be used for different independent VMs".  A :class:`Fleet` instantiates N
independent machines (one per vCPU or per VM) and dispatches work across
them, aggregating time and trace accounting — the abstraction behind the
memcached model's "2 usable vCPUs" and a harness for scaling studies.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.errors import ConfigError


@dataclass(frozen=True)
class FleetResult:
    """Aggregate outcome of a dispatched batch."""

    programs: int
    makespan_ns: int        # time until the last machine finished
    total_busy_ns: int      # summed busy time across machines
    total_exits: int

    @property
    def utilization(self):
        if self.makespan_ns == 0:
            return 0.0
        return self.total_busy_ns / self.makespan_ns


class Fleet:
    """N independent simulated stacks with least-loaded dispatch."""

    def __init__(self, size, mode=ExecutionMode.BASELINE, costs=None,
                 **machine_kwargs):
        if size < 1:
            raise ConfigError("fleet needs at least one machine")
        self.machines = [
            Machine(mode=mode, costs=costs, **machine_kwargs)
            for _ in range(size)
        ]
        self.mode = mode
        self.dispatched = [0] * size

    @property
    def size(self):
        return len(self.machines)

    def least_loaded(self):
        """Index of the machine with the earliest local clock."""
        return min(range(self.size),
                   key=lambda i: self.machines[i].sim.now)

    def dispatch(self, program, level=2):
        """Run one program on the least-loaded machine; returns
        (machine_index, RunResult)."""
        index = self.least_loaded()
        result = self.machines[index].run_program(program, level=level)
        self.dispatched[index] += 1
        return index, result

    def run_batch(self, programs, level=2):
        """Dispatch a batch; returns a :class:`FleetResult`."""
        start_clocks = [m.sim.now for m in self.machines]
        exits_before = sum(self._exits(m) for m in self.machines)
        count = 0
        for program in programs:
            self.dispatch(program, level=level)
            count += 1
        busy = sum(
            machine.sim.now - start
            for machine, start in zip(self.machines, start_clocks)
        )
        makespan = max(
            machine.sim.now - start
            for machine, start in zip(self.machines, start_clocks)
        )
        return FleetResult(
            programs=count,
            makespan_ns=makespan,
            total_busy_ns=busy,
            total_exits=sum(self._exits(m)
                            for m in self.machines) - exits_before,
        )

    def merged_tracer(self):
        merged = self.machines[0].tracer
        for machine in self.machines[1:]:
            merged = merged.merged_with(machine.tracer)
        return merged

    @staticmethod
    def _exits(machine):
        return (sum(machine.stack.exit_counts.values())
                + sum(machine.stack.aux_exit_counts.values()))

    def __repr__(self):
        return f"Fleet({self.size} x {self.mode})"
