"""Discrete-event simulation substrate used by every other subpackage.

The simulator keeps an integer nanosecond clock.  Synchronous "machine"
code advances time through one charging call, :meth:`Tracer.charge`,
which books the time to a category and moves the clock itself while no
event is due; otherwise it calls :meth:`Simulator.advance`, which fires
the due events.  Asynchronous events (interrupt arrivals, client
requests) are scheduled with :meth:`Simulator.after` /
:meth:`Simulator.at` and fire in timestamp order whenever the clock
sweeps past them.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.rng import DeterministicRng
from repro.sim.stats import percentile
from repro.sim.trace import Tracer, Category

__all__ = [
    "Category",
    "DeterministicRng",
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Tracer",
    "percentile",
]
