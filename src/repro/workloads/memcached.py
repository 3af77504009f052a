"""memcached under Facebook's ETC workload (paper Fig. 8 / §6.3.1).

The paper drives a memcached server in L2 with the mutilate load
generator from a separate machine, sweeping offered load and reporting
average and 99th-percentile latency against a 500 µs SLA.

Reproduction in two stages:

1. **Service-time measurement** — server-side request handling is driven
   through the live machine: RX interrupt into L2 (reflected exit + aux),
   EOIs (reflected MSR writes), hash-table work, reply TX kick (reflected
   EPT_MISCONFIG through L1's vhost), TX completion, and a periodic
   TSC-deadline re-arm.  This is where the paper's profiling shape comes
   from (EPT_MISCONFIG and MSR_WRITE dominating L0's handling time).
2. **Queueing simulation** — open-loop Poisson arrivals over the L2 VM's
   two usable vCPUs (Table 4), log-normal service jitter, FCFS.  Tail
   latency then *emerges* from utilisation, which is why the baseline's
   p99 explodes first.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.net import Packet, TXQ, install_network
from repro.sim.rng import DeterministicRng
from repro.sim.stats import percentile
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE

#: Paper Figure 8.
PAPER = {
    "sla_us": 500.0,
    "p99_improvement": 2.20,
    "avg_improvement": 1.43,
    "load_range_kqps": (5.0, 22.5),
}


#: The offered loads (kQPS) of one Figure-8 sweep.
DEFAULT_LOADS_KQPS = (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5)


@dataclass(frozen=True)
class EtcConfig:
    """Facebook ETC workload shape (Atikoglu et al., SIGMETRICS'12)."""

    get_fraction: float = 0.97          # ETC is strongly read-dominated
    key_space: int = 4096
    zipf_skew: float = 0.99
    get_work_ns: int = 2600             # hash lookup + response build
    set_work_ns: int = 5800             # allocation + LRU + store
    timer_rearm_every: int = 6          # background deadline re-arms
    # Every request wakes L1-side workers (vhost TX+RX, QEMU event loop,
    # iothread): scheduler wakeups in the baseline, free with the
    # mwait-parked SVt-thread / stalled hardware contexts under SVt.
    l1_wakes_per_request: int = 5
    service_jitter_sigma: float = 0.22  # log-normal shape
    servers: int = 2                    # usable L2 vCPUs (Table 4)


@dataclass
class LoadPoint:
    offered_kqps: float
    avg_us: float
    p99_us: float

    def within_sla(self, sla_us=500.0):
        return self.p99_us <= sla_us


@dataclass
class MemcachedResult:
    mode: str
    service_get_us: float
    service_set_us: float
    points: list = field(default_factory=list)

    def max_load_within_sla(self, sla_us=500.0):
        ok = [p.offered_kqps for p in self.points if p.within_sla(sla_us)]
        return max(ok) if ok else 0.0


def _serve_one(machine, net, cfg, is_get, op_index):
    """Drive one server-side request through the machine; returns ns."""
    started = machine.sim.now
    for _ in range(cfg.l1_wakes_per_request):
        machine.stack.engine.charge_guest_wake(1)
    # Request arrives: RX interrupt into L2 plus its EOI.
    machine.stack.inject_irq_into_l2(0x60)
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    # Application work.
    work = cfg.get_work_ns if is_get else cfg.set_work_ns
    machine.run_instruction(isa.alu(work))
    # Reply: TX kick through the nested virtio chain + completion + EOI.
    net.l2_nic.queue_tx(Packet("reply", 128 if is_get else 32))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, TXQ))
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    # L1's own EOI for the forwarded frame.
    machine.stack.l1_exit(ExitInfo(ExitReason.MSR_WRITE,
                                   {"msr": MSR_APIC_EOI, "value": 0}))
    if op_index % cfg.timer_rearm_every == 0:
        machine.run_instruction(
            isa.wrmsr(MSR_TSC_DEADLINE, machine.sim.now + 10_000_000)
        )
    return machine.sim.now - started


#: Service-time memo (the "compile once per sweep" stage for this
#: workload): ``measure_service`` is a pure function of its inputs —
#: it builds a private Machine, drives a fixed request script through
#: it, and returns two means — so one measurement per
#: (mode, config, samples, cost model) serves a whole sweep.  Bypassed
#: whenever an observer is ambient or the ordering sanitizer is armed:
#: those want the *events*, not just the result.  Bounded with a full
#: wipe, like the segment memo.
_SERVICE_MEMO_MAX = 64
_service_memo = {}


def reset_service_memo():
    """Drop memoized service-time measurements (bench sections isolate
    kernel timings behind this)."""
    _service_memo.clear()


def measure_service(mode=ExecutionMode.BASELINE, config=None, samples=18,
                    costs=None):
    """Mean service time (ns) for GET and SET in a mode."""
    from repro.cpu import costmodels, segments
    from repro.obs.observer import ambient as obs_ambient
    from repro.sim import sanitizer

    cfg = config or EtcConfig()
    memoizable = obs_ambient() is None and not sanitizer.enabled()
    key = None
    if memoizable:
        key = (str(mode), cfg, samples,
               segments.cost_fingerprint(costmodels.resolve(costs)))
        cached = _service_memo.get(key)
        if cached is not None:
            return cached
    machine = Machine(mode=mode, costs=costs)
    net = install_network(machine)
    # Under sustained load, TX completions are coalesced (event index).
    net.l1_backend.notify_tx_completion = False
    get_ns = []
    set_ns = []
    for i in range(2):   # warmup
        _serve_one(machine, net, cfg, True, i + 1)
    for i in range(samples):
        get_ns.append(_serve_one(machine, net, cfg, True, i + 1))
        set_ns.append(_serve_one(machine, net, cfg, False, i + 7))
    outcome = (sum(get_ns) / len(get_ns), sum(set_ns) / len(set_ns))
    if memoizable:
        if len(_service_memo) >= _SERVICE_MEMO_MAX:
            _service_memo.clear()
        _service_memo[key] = outcome
    return outcome


def _mean(samples):
    """Mean of a float list, summed by a plain left fold in list order.

    Python 3.12's ``sum()`` compensates float rounding, so it returns a
    different double than 3.9-3.11 for the same sojourns; the left fold
    gives the same bits on every version, and it is the sum the native
    queue loop (``repro.workloads.native_queue``) computes.
    """
    return reduce(add, samples) / len(samples)


def _queueing_run(get_ns, set_ns, offered_kqps, cfg, rng, requests=30_000):
    """FCFS multi-server queue; returns (avg_us, p99_us) of sojourn.

    The shape the compiled loops cover (two servers, more than one key,
    jitter > 0, positive service times) runs in the native replay
    (``repro.workloads.native_queue``), or in ``_queueing_run_fast``
    when that tier is unavailable; any other shape takes the reference
    loop.  All three are bit-for-bit identical, rng end position
    included.
    """
    if (cfg.servers == 2 and cfg.key_space > 1
            and cfg.service_jitter_sigma > 0
            and get_ns > 0 and set_ns > 0):
        from repro.workloads import native_queue

        outcome = native_queue.queue_replay(get_ns, set_ns, offered_kqps,
                                            cfg, rng, requests)
        if outcome is not None:
            return outcome
        return _queueing_run_fast(get_ns, set_ns, offered_kqps, cfg,
                                  rng, requests)
    return _queueing_run_reference(get_ns, set_ns, offered_kqps, cfg,
                                   rng, requests)


def _queueing_run_reference(get_ns, set_ns, offered_kqps, cfg, rng,
                            requests=30_000):
    """The per-request loop, one rng helper call per draw: the
    semantic definition, and the path for shapes the compiled loops do
    not cover."""
    arrival_mean_ns = 1e6 / offered_kqps
    servers = [0.0] * cfg.servers
    clock = 0.0
    sojourns = []
    for _ in range(requests):
        clock += rng.exponential(arrival_mean_ns)
        is_get = rng.bernoulli(cfg.get_fraction)
        rng.zipf_index(cfg.key_space, cfg.zipf_skew)  # key popularity draw
        base = get_ns if is_get else set_ns
        service = rng.lognormal_around(base, cfg.service_jitter_sigma)
        idx = min(range(len(servers)), key=servers.__getitem__)
        start = max(clock, servers[idx])
        finish = start + service
        servers[idx] = finish
        sojourns.append(finish - clock)
    avg = _mean(sojourns) / 1000.0
    return avg, percentile(sojourns, 99) / 1000.0


#: Kinderman-Monahan constant, exactly as CPython's random.normalvariate
#: uses it (stable across the 3.9-3.13 line; the differential tests
#: below and in tests/workloads guard against upstream drift).
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


def _queueing_run_fast(get_ns, set_ns, offered_kqps, cfg, rng,
                       requests=30_000):
    """Segment-compiled replay of the reference loop (bit-exact).

    The per-request "segment" — arrival draw, GET/SET split, key
    popularity draw, log-normal service draw, 2-server FCFS dispatch —
    is compiled down to local arithmetic over the raw uniform stream:
    the stdlib samplers (``expovariate``, ``lognormvariate`` via
    Kinderman-Monahan ``normalvariate``) are inlined with their exact
    algorithms, and the per-mode constants (``lambd``, the two
    log-normal ``mu`` values) are hoisted out of the loop.  Exactly one
    zipf popularity variate is consumed and discarded per request, as
    in the reference (`zipf_index` draws once for ``key_space > 1``).
    Guarded by the dispatcher to the shapes it compiles for
    (two servers, jitter > 0); anything else takes the reference loop.
    The native replay (``repro.workloads.native_queue``) runs this
    loop in C and self-checks against it on every load.
    """
    random = rng.raw_stream()
    log = math.log
    exp = math.exp
    lambd = 1.0 / (1e6 / offered_kqps)
    p_get = cfg.get_fraction
    sigma = cfg.service_jitter_sigma
    half_var = sigma * sigma / 2.0
    mu_get = log(get_ns) - half_var
    mu_set = log(set_ns) - half_var
    nv_magic = _NV_MAGICCONST
    server0 = 0.0
    server1 = 0.0
    clock = 0.0
    sojourns = []
    append = sojourns.append
    for _ in range(requests):
        # expovariate(lambd), inlined.
        clock += -log(1.0 - random()) / lambd
        is_get = random() < p_get
        random()  # zipf popularity draw (index unused by the model)
        mu = mu_get if is_get else mu_set
        # lognormvariate = exp(normalvariate(mu, sigma)), inlined
        # (Kinderman-Monahan rejection sampling).
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = nv_magic * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        service = exp(mu + z * sigma)
        # Two-server FCFS: ties pick server 0, same as min() over the
        # list in the reference.
        if server0 <= server1:
            start = clock if clock > server0 else server0
            server0 = start + service
            append(server0 - clock)
        else:
            start = clock if clock > server1 else server1
            server1 = start + service
            append(server1 - clock)
    avg = _mean(sojourns) / 1000.0
    return avg, percentile(sojourns, 99) / 1000.0


def run(mode=ExecutionMode.BASELINE, config=None, loads_kqps=None, seed=42,
        requests=30_000, costs=None):
    """Full Figure-8 sweep for one mode."""
    cfg = config or EtcConfig()
    loads = loads_kqps or DEFAULT_LOADS_KQPS
    get_ns, set_ns = measure_service(mode, cfg, costs=costs)
    result = MemcachedResult(mode=mode, service_get_us=get_ns / 1000.0,
                             service_set_us=set_ns / 1000.0)
    for load in loads:
        rng = DeterministicRng(seed).fork(f"{mode}:{load}")
        avg, p99 = _queueing_run(get_ns, set_ns, load, cfg, rng,
                                 requests=requests)
        result.points.append(LoadPoint(load, avg, p99))
    return result


def headline_improvements(baseline, svt, sla_us=500.0):
    """The paper's headline numbers (the 2.20x / 1.43x arrows of Fig. 8).

    * p99: the largest improvement over loads where the baseline still
      meets the SLA (the paper's "within SLA" qualifier).
    * avg: the improvement in the flat low-load region, where average
      latency reflects the service path rather than queueing.
    """
    p99_ratios = [
        base_point.p99_us / svt_point.p99_us
        for base_point, svt_point in zip(baseline.points, svt.points)
        if base_point.within_sla(sla_us)
    ]
    avg_ratio = (baseline.points[0].avg_us / svt.points[0].avg_us
                 if baseline.points and svt.points else 0.0)
    return (max(p99_ratios) if p99_ratios else 0.0, avg_ratio)
