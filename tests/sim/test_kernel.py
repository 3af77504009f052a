"""The ambient stats hook: totals over what a collection built."""

from repro.core.system import Machine
from repro.cpu import isa
from repro.sim.engine import Simulator
from repro.sim.kernel import collect_stats


def test_collect_stats_sums_only_what_was_built_inside():
    outside = Simulator()
    with collect_stats() as stats:
        sim = Simulator()
        sim.after(5, lambda: None)
        sim.run_until_idle()
        machine = Machine()
        machine.run_program(isa.Program([isa.cpuid()], repeat=3))
    outside.after(1, lambda: None)
    outside.run_until_idle()
    assert stats.events_fired == (sim.events_fired
                                  + machine.sim.events_fired)
    assert stats.instructions == machine.instructions_retired == 3
