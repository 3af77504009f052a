"""Wait-mechanism models for the SW SVt communication channel (§6.1).

The paper compares **polling**, **mwait** (cache-line monitoring) and
**mutex** against a plain function call, across three placements of the
two communicating threads (sibling SMT threads, separate cores on one
NUMA node, separate NUMA nodes), sweeping the size of the work performed
between handoffs.  Numbers are "not shown for brevity"; the text states
five qualitative observations, which the ``sec61`` experiment checks
against this model:

1. polling has the lowest latency for small workloads, but under SMT its
   overheads grow with the workload (the spinning thread steals execution
   cycles from the computing thread);
2. cross-NUMA placement has up to an order of magnitude longer response
   latency;
3. separate cores on one node respond fast but burn a core;
4. mutexes cost a lot to enter but stop stealing cycles, winning for
   large workloads under SMT;
5. mwait is slightly better than mutex at large sizes and slightly slower
   than polling at small sizes.

Robustness extension (``docs/robustness.md``): :func:`handoff` can model
a **lost wakeup** — the producer's write lands but the waiter's
notification is lost.  Polling (and the function call) are immune: the
waiter re-reads the line every iteration.  A sleeping waiter (mwait's
monitor arm, mutex's kernel block) only recovers when its watchdog
timeout fires and it re-checks the flag, so the response latency grows
by ``recovery_timeout_ns``.  A mutex still inside its active spin
window reacts like a poller and is likewise immune.
"""

from dataclasses import dataclass

from repro.errors import ConfigError


class WaitMechanism:
    FUNCTION_CALL = "function_call"
    POLLING = "polling"
    MWAIT = "mwait"
    MUTEX = "mutex"

    ALL = (FUNCTION_CALL, POLLING, MWAIT, MUTEX)


class Placement:
    SMT = "smt"       # sibling hardware threads of one core
    CORE = "core"     # separate cores, same NUMA node
    NUMA = "numa"     # separate NUMA nodes

    ALL = (SMT, CORE, NUMA)


@dataclass(frozen=True)
class HandoffResult:
    """Outcome of one producer->consumer handoff experiment."""

    mechanism: str
    placement: str
    workload_ns: int
    producer_ns: float      # time the producer needed for its workload
    response_ns: float      # notification latency after the producer wrote
    burns_remote_cpu: bool  # whether the waiter occupies a full CPU
    recovered: bool = False  # waiter survived a lost wakeup via timeout

    @property
    def total_ns(self):
        return self.producer_ns + self.response_ns


def handoff(costs, mechanism, placement, workload_ns, lost_wakeup=False,
            recovery_timeout_ns=2_000):
    """Model one handoff: the producer computes ``workload_ns`` of work,
    writes a flag/line, and the consumer reacts.

    With ``lost_wakeup`` the notification itself is lost: spinning
    waiters re-read the line and do not care; sleeping waiters (mwait,
    blocked mutex) pay ``recovery_timeout_ns`` — their watchdog's
    re-check period — before they notice the flag.

    Returns a :class:`HandoffResult`.  ``costs`` is a
    :class:`~repro.cpu.costs.CostModel`.
    """
    if mechanism not in WaitMechanism.ALL:
        raise ConfigError(f"unknown wait mechanism {mechanism!r}")
    if placement not in Placement.ALL:
        raise ConfigError(f"unknown placement {placement!r}")
    if workload_ns < 0:
        raise ConfigError("workload must be >= 0")
    if recovery_timeout_ns < 0:
        raise ConfigError("recovery timeout must be >= 0")

    if mechanism == WaitMechanism.FUNCTION_CALL:
        # Same thread: no transfer, no wake; the baseline of §6.1.
        # Nothing to lose either — control transfer is the "wakeup".
        return HandoffResult(mechanism, placement, workload_ns,
                             float(workload_ns), 0.0, False)

    line = costs.cacheline_transfer(placement)
    producer_ns = float(workload_ns)
    burns_remote = False
    recovered = False

    if mechanism == WaitMechanism.POLLING:
        # The waiter spins; reaction is one line transfer + one poll
        # iteration.  Under SMT the spin loop shares the core's execution
        # resources with the producer, inflating its workload time.
        # A lost wakeup is harmless: the next poll re-reads the flag.
        response = line + costs.poll_iteration
        if placement == Placement.SMT:
            producer_ns = workload_ns / (1.0 - costs.poll_smt_interference)
        else:
            burns_remote = True
    elif mechanism == WaitMechanism.MWAIT:
        # monitor/mwait: the waiter sleeps in C1 without issuing uops, so
        # the producer runs at full speed; waking costs the C1 exit.
        response = line + costs.mwait_wake
        if lost_wakeup:
            # The monitored-line trigger was missed (e.g. the armed
            # monitor was cleared by an interrupt): the waiter sleeps
            # until its watchdog timeout fires and re-checks.
            response += recovery_timeout_ns
            recovered = True
    else:  # MUTEX
        # Futex-style: brief active spin first (cheap reaction when the
        # producer finishes within the spin window), then block in the
        # kernel (expensive wake).  The paper: "mutex actively polls for
        # a brief time first" / "large startup cost ... quickly offset in
        # SMT as we increase the workload size".
        spin_window = costs.mutex_startup // 4
        if workload_ns <= spin_window:
            # Still spinning: immune to a lost wake, like a poller.
            response = line + costs.poll_iteration
            if placement == Placement.SMT:
                producer_ns = workload_ns / (
                    1.0 - costs.poll_smt_interference
                )
        else:
            response = line + costs.mutex_wake
            if lost_wakeup:
                # The futex wake was lost; only the timed re-acquire
                # (FUTEX_WAIT timeout) unblocks the waiter.
                response += recovery_timeout_ns
                recovered = True

    return HandoffResult(mechanism, placement, workload_ns, producer_ns,
                         response, burns_remote, recovered)

