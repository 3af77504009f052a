"""Discrete-event simulation substrate used by every other subpackage.

The simulator keeps an integer nanosecond clock.  Synchronous "machine"
code advances time through one charging call,
:meth:`~repro.sim.trace.Tracer.charge`, which books the time to a
category and moves the clock itself while no event is due; otherwise it
calls :meth:`~repro.sim.engine.Simulator.advance`, which fires the due
events.  Asynchronous events (interrupt arrivals, client requests) are
scheduled with :meth:`~repro.sim.engine.Simulator.after` /
:meth:`~repro.sim.engine.Simulator.at` and fire in timestamp order
whenever the clock sweeps past them.
"""
