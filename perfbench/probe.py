"""Host-speed probe.

The benchmark host slows every process by up to ~1.7x in phases lasting
seconds.  A fixed piece of pure-Python work timed just before and after
an op measures the host's speed around it; an op that took ``t``
seconds between probes averaging ``p`` is reported as
``t * P_REF_S / p``: the op's time on a host where the probe takes
``P_REF_S``.

The probe runs two loops and calls nothing from the program under test:
integer arithmetic on cached small ints, which allocates nothing, and
small allocations, dict updates and attribute reads, the kind of work
the simulator's own loops do.  The integer loop alone did not track the
experiments: in two sessions an hour apart on the development host it
took the same time while the experiments' raw time differed by 1.6x.
The garbage collector is paused while the probe runs, so a collection
of the caller's heap never lands inside it.
"""

import gc
import os
import time

#: Probe time on the development host (2-vCPU x86-64 VM, CPython 3.11)
#: in its fast phases.  A constant of the benchmark, never re-measured.
P_REF_S = 0.004


def _spin():
    x = 0
    k = 0
    while k < 2:
        i = 0
        while i < 200:
            j = 0
            while j < 250:
                x ^= j
                j += 1
            i += 1
        k += 1
    return x


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _churn():
    table = {}
    cells = []
    for i in range(1000):
        key = ("k", i & 255)
        table[key] = table.get(key, 0) + 1
        cells.append(_Cell(key, i))
    total = 0
    for cell in cells:
        total += table[cell.key] + (cell.value & 7)
    return total


def _timed():
    started = time.perf_counter()
    _spin()
    _churn()
    return time.perf_counter() - started


def probe():
    """Seconds the probe takes now: the faster of two runs after an
    untimed one (the first run after a fork pays copy-on-write page
    faults on every object it touches)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _spin()
        _churn()
        return min(_timed(), _timed())
    finally:
        if enabled:
            gc.enable()


def host_probe(cpus):
    """Mean probe over ``cpus``, taken on each in turn (for work spread
    over several processes); restores this process's CPU set."""
    previous = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, previous)
    return sum(times) / len(times)


def normalize(seconds, probe_s):
    """``seconds`` rescaled to a host where the probe takes P_REF_S."""
    return seconds * P_REF_S / probe_s


def timed(fn, probe_fn=probe):
    """``fn()`` between two calls of ``probe_fn``.

    Returns ``((seconds, normalized seconds), fn's result)``, normalized
    by the mean of the two probes.  A long stretch of work, such as a
    set-up, is timed as a series of these pieces, so that each piece is
    normalized by the host's speed around it rather than at the ends.
    """
    before = probe_fn()
    started = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - started
    return (seconds, normalize(seconds, (before + probe_fn()) / 2)), result


def total(pieces):
    """A set-up's raw and normalized seconds from its pieces."""
    return {"seconds": sum(raw for raw, _ in pieces),
            "normalized_s": sum(norm for _, norm in pieces),
            "pieces": len(pieces)}
