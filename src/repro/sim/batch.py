"""Sweep-level batch kernel: compile once, replay many cells.

``REPRO_SIM_KERNEL=batch`` layers two replay tiers on top of the
segment kernel (whose per-cell semantics it inherits byte for byte —
see ``docs/performance.md``, "Batch kernel"):

* **Flat cell replay** (:func:`replay_cells`) — machine-level: given
  many independent (machine, program) cells whose next span is
  provably event-free, the per-cell mutable state (charge spans,
  retired counts, entry clocks) is laid out in flat stdlib
  :mod:`array` vectors and applied in one tight loop, skipping the
  whole per-cell ``run_program``/``_replay_segment`` prologue.  The
  compile memo (:mod:`repro.cpu.segments`) is shared, so a sweep of
  structurally identical cells compiles exactly once.  Any cell that
  fails the eligibility proof — pending deferred I/O, a pending
  interrupt, an event inside the span, observability attached, a
  multi-node plan — falls back to the ordinary per-cell step path,
  which is byte-identical by contract.

* **Native queue replay** (:func:`queue_replay`) — workload-level: the
  memcached ETC queueing inner loop (the fig8 sweep's dominant cost)
  is replayed by a compile-once C micro-kernel that embeds a bit-exact
  MT19937 (CPython's generator) and links the same libm as
  :mod:`math`, so every draw, every ``log``/``exp`` and the
  left-folded sojourn sum are the identical doubles the pure-Python
  fast path produces.  The kernel is built on first use with the
  system C compiler into a content-hash-named shared object; a
  load-time differential self-check against a pure-Python mirror
  disables the tier on any platform where even one bit differs.
  Callers treat a ``None`` return as "use the fallback path".

Cross-cell **event-heap elimination** is the eligibility proof above:
a cell whose simulator heap is empty (or whose next deadline lies at
or beyond the remaining span) cannot interleave with anything, so its
whole span collapses to one charge — no per-instruction boundary
checks, no per-cell event-heap traffic.

Nothing here may perturb results: every tier either reproduces the
segment kernel's bytes exactly or declines, and the differential tests
(`tests/exp/test_kernel_differential.py`, `tests/sim/test_batch.py`)
hold all three kernels to that bar.
"""

import ctypes
import os
import subprocess
import tempfile
from array import array
from hashlib import sha256
from pathlib import Path

from repro.cpu import segments
from repro.sim.trace import Category

#: Env var: set to ``0`` to disable the native tier (forces the pure
#: Python fallback; the fallback-path tests pin it).
NATIVE_ENV_VAR = "REPRO_BATCH_NATIVE"

#: Env var: overrides the build-cache directory for the native kernel.
CACHE_ENV_VAR = "REPRO_BATCH_CACHE"

#: MT19937 state width: 624 key words plus the cursor.
_MT_WORDS = 625

# ---------------------------------------------------------------------------
# Batch-occupancy counters (surfaced by `repro bench`; see also the
# obs-layer mirror in _count below)
# ---------------------------------------------------------------------------

_COUNTS = {
    "cells_batched": 0,
    "cells_fallback": 0,
    "heap_elisions": 0,
    "native_calls": 0,
    "native_unavailable": 0,
}


def batch_stats():
    """Batch-tier occupancy since process start or the last reset."""
    return dict(_COUNTS)


def reset_batch_stats():
    for key in _COUNTS:
        _COUNTS[key] = 0


def _count(name, observer=None):
    """Bump a batch counter, mirrored into the obs metrics registry
    when an observer is ambient (the counters are deterministic —
    pure functions of the cell set — so the metrics document stays
    byte-identical at any ``--jobs``)."""
    _COUNTS[name] += 1
    if observer is not None:
        observer.count(f"batch_{name}_total")


# ---------------------------------------------------------------------------
# Native queue kernel: C source
# ---------------------------------------------------------------------------

#: The compiled replay of ``workloads.memcached._queueing_run_fast``'s
#: per-request segment, with CPython's MT19937 inlined (genrand_uint32
#: and the 53-bit double conversion exactly as _randommodule.c).  The
#: sojourn total accumulates in generation order — the same left fold
#: as the fast path's ``memcached._mean`` — and the two order statistics a
#: linear-interpolation percentile needs come from an O(n) quickselect
#: (order statistics are value-exact regardless of the selection
#: algorithm; the data is sojourn times, so no NaNs and no adversarial
#: pivot patterns).  Compiled with -ffp-contract=off so no fused
#: multiply-add changes a rounding the interpreter would have
#: performed.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

static uint32_t genrand(uint32_t *mt, uint32_t *mti_io)
{
    static const uint32_t mag01[2] = {0U, MATRIX_A};
    uint32_t y;
    uint32_t mti = *mti_io;
    if (mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mti = 0;
    }
    y = mt[mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    *mti_io = mti;
    return y;
}

static double mt_random(uint32_t *mt, uint32_t *mti)
{
    uint32_t a = genrand(mt, mti) >> 5;
    uint32_t b = genrand(mt, mti) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Exact kth and (k+1)th smallest of a[0..n-1] (a is clobbered).
   Median-of-3 quickselect; on termination every element left of k is
   <= a[k] and every element right is >= a[k], so the (k+1)th order
   statistic is the minimum of the right part. */
static void select_two(double *a, long n, long k,
                       double *out_lo, double *out_hi)
{
    long lo = 0, hi = n - 1;
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2;
        double p, t;
        long i = lo, j = hi;
        if (a[mid] < a[lo]) { t = a[mid]; a[mid] = a[lo]; a[lo] = t; }
        if (a[hi] < a[lo])  { t = a[hi];  a[hi] = a[lo];  a[lo] = t; }
        if (a[hi] < a[mid]) { t = a[hi];  a[hi] = a[mid]; a[mid] = t; }
        p = a[mid];
        while (i <= j) {
            while (a[i] < p) i++;
            while (a[j] > p) j--;
            if (i <= j) {
                t = a[i]; a[i] = a[j]; a[j] = t;
                i++; j--;
            }
        }
        if (k <= j) hi = j;
        else if (k >= i) lo = i;
        else break;  /* j < k < i: a[k] == p, in final position */
    }
    *out_lo = a[k];
    if (k + 1 < n) {
        double m = a[k + 1];
        long t;
        for (t = k + 2; t < n; t++)
            if (a[t] < m) m = a[t];
        *out_hi = m;
    } else {
        *out_hi = a[k];
    }
}

/* Replay n requests from the MT19937 state (625 words, updated in
   place).  Returns the sojourn total (generation-order left fold);
   out2[0]/out2[1] receive the kth/(k+1)th smallest sojourns for the
   caller's percentile interpolation.  Returns -1.0 on alloc failure
   (the caller falls back; sojourns are all positive so the sentinel
   is unambiguous). */
double qk_etc_run(uint32_t *state, long n, long k,
                  double lambd, double p_get, double sigma,
                  double mu_get, double mu_set, double nv_magic,
                  double *out2)
{
    uint32_t *mt = state;
    uint32_t mti = state[MT_N];
    double server0 = 0.0, server1 = 0.0, clock = 0.0, total = 0.0;
    double *sojourns;
    long i;
    sojourns = (double *)malloc((size_t)n * sizeof(double));
    if (sojourns == NULL) return -1.0;
    for (i = 0; i < n; i++) {
        double u1, u2, z, mu, service, start, fin, s;
        int is_get;
        clock += -log(1.0 - mt_random(mt, &mti)) / lambd;
        is_get = mt_random(mt, &mti) < p_get;
        mt_random(mt, &mti);  /* zipf popularity draw, index unused */
        for (;;) {
            u1 = mt_random(mt, &mti);
            u2 = 1.0 - mt_random(mt, &mti);
            z = nv_magic * (u1 - 0.5) / u2;
            if (z * z / 4.0 <= -log(u2)) break;
        }
        mu = is_get ? mu_get : mu_set;
        service = exp(mu + z * sigma);
        if (server0 <= server1) {
            start = clock > server0 ? clock : server0;
            fin = start + service;
            server0 = fin;
        } else {
            start = clock > server1 ? clock : server1;
            fin = start + service;
            server1 = fin;
        }
        s = fin - clock;
        sojourns[i] = s;
        total += s;
    }
    state[MT_N] = mti;
    select_two(sojourns, n, k, &out2[0], &out2[1]);
    free(sojourns);
    return total;
}
"""


# ---------------------------------------------------------------------------
# Native kernel build + load
# ---------------------------------------------------------------------------

#: ``None`` = not yet probed, ``False`` = unavailable, else the lib.
_native_lib = None


def _cache_dir():
    """Build-cache directory: env override, else ``.batch_cache`` at
    the repo root (gitignored), else the system temp directory."""
    # svtlint: disable=SVT001 — build-cache placement is environment
    # config by design (like REPRO_SIM_KERNEL); the compiled kernel's
    # output is self-checked bit-exact regardless of where it lives.
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    import repro

    root = Path(repro.__file__).resolve().parents[2] / ".batch_cache"
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".writable"
        probe.write_text("")
        probe.unlink()
        return root
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-batch-cache"


def _build_native():
    """Compile the kernel into the cache (content-hash named), atomically.

    Returns the shared-object path or ``None`` when no compiler is
    available or the build fails — every failure mode is a silent
    fallback, never an error surfaced to an experiment.
    """
    from shutil import which

    cc = which("cc") or which("gcc") or which("clang")
    if cc is None:
        return None
    digest = sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"qk_{digest}.so"
    if so_path.exists():
        return so_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        c_path = cache / f"qk_{digest}.c"
        c_path.write_text(_C_SOURCE)
        tmp_so = cache / f".qk_{digest}.{os.getpid()}.so"
        proc = subprocess.run(
            [cc, "-O2", "-std=c99", "-ffp-contract=off", "-fPIC",
             "-shared", "-o", str(tmp_so), str(c_path), "-lm"],
            capture_output=True,
        )
        if proc.returncode != 0:
            return None
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        return so_path
    except OSError:
        return None


def _python_mirror(state, n, lambd, p_get, sigma, mu_get, mu_set,
                   nv_magic):
    """Pure-Python mirror of the C kernel, for the load-time self-check.

    Drives a ``random.Random`` restored from ``state`` through the
    exact inner loop of ``workloads.memcached._queueing_run_fast``
    (the semantic source of truth); returns ``(total, sorted sojourns,
    final state)``.
    """
    import math
    import random as _random_mod

    rng = _random_mod.Random()
    rng.setstate((3, tuple(state), None))
    random = rng.random
    log = math.log
    exp = math.exp
    server0 = 0.0
    server1 = 0.0
    clock = 0.0
    total = 0.0
    sojourns = []
    for _ in range(n):
        clock += -log(1.0 - random()) / lambd
        is_get = random() < p_get
        random()  # zipf popularity draw
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = nv_magic * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        mu = mu_get if is_get else mu_set
        service = exp(mu + z * sigma)
        if server0 <= server1:
            start = clock if clock > server0 else server0
            server0 = start + service
            sojourns.append(server0 - clock)
        else:
            start = clock if clock > server1 else server1
            server1 = start + service
            sojourns.append(server1 - clock)
        total += sojourns[-1]
    return total, sorted(sojourns), rng.getstate()[1]


def _self_check(lib):
    """Differential replays: the native kernel must reproduce the
    Python inner loop bit for bit (total, order statistics at the
    extremes and the percentile ranks the callers use, and the final
    MT19937 state) or the tier is disabled on this platform (e.g. a
    libm whose log/exp round differently from CPython's)."""
    import math
    import random as _random_mod

    seed_state = _random_mod.Random(20190613).getstate()[1]
    n = 2048
    sigma = 0.22
    params = dict(
        lambd=1.0 / (1e6 / 15.0), p_get=0.97, sigma=sigma,
        mu_get=math.log(30000.0) - sigma * sigma / 2.0,
        mu_set=math.log(52000.0) - sigma * sigma / 2.0,
        nv_magic=4 * math.exp(-0.5) / math.sqrt(2.0),
    )
    ref_total, ref_sorted, ref_state = _python_mirror(
        seed_state, n, params["lambd"], params["p_get"],
        params["sigma"], params["mu_get"], params["mu_set"],
        params["nv_magic"],
    )
    for k in (0, 1, n // 2, int((99 / 100) * (n - 1)), n - 2, n - 1):
        state = array("I", seed_state)
        out2 = array("d", bytes(16))
        total = lib.qk_etc_run(
            (ctypes.c_uint32 * _MT_WORDS).from_buffer(state),
            n, k, params["lambd"], params["p_get"], params["sigma"],
            params["mu_get"], params["mu_set"], params["nv_magic"],
            (ctypes.c_double * 2).from_buffer(out2),
        )
        if (total != ref_total
                or out2[0] != ref_sorted[k]
                or out2[1] != ref_sorted[min(k + 1, n - 1)]
                or tuple(state) != tuple(ref_state)):
            return False
    return True


def native_kernel():
    """The checked native library, or ``None`` (probe once, cache)."""
    global _native_lib
    if _native_lib is not None:
        return _native_lib or None
    # svtlint: disable=SVT001 — tier selection is environment config by
    # design, exactly like REPRO_SIM_KERNEL: pool workers inherit it,
    # and every tier produces byte-identical results by construction.
    if os.environ.get(NATIVE_ENV_VAR, "1") == "0":
        _native_lib = False
        return None
    so_path = _build_native()
    if so_path is None:
        _native_lib = False
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        _native_lib = False
        return None
    lib.qk_etc_run.restype = ctypes.c_double
    lib.qk_etc_run.argtypes = [
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_long, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.POINTER(ctypes.c_double),
    ]
    _native_lib = lib if _self_check(lib) else False
    return _native_lib or None


def reset_native_probe():
    """Forget the probe result (tests flip the env gate around this)."""
    global _native_lib
    _native_lib = None


# ---------------------------------------------------------------------------
# Workload-facing queue replay
# ---------------------------------------------------------------------------


def percentile_sorted(ordered, pct):
    """``repro.sim.stats.percentile`` over an already-sorted sequence —
    the identical interpolation arithmetic, minus the redundant sort."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of [0, 100]")
    n = len(ordered)
    if not n:
        raise ValueError("percentile of empty sample set")
    if n == 1:
        return ordered[0]
    rank = (pct / 100) * (n - 1)
    lo = int(rank)
    frac = rank - lo
    if not frac:
        return ordered[lo]
    return ordered[lo] * (1 - frac) + ordered[lo + 1] * frac


def queue_replay(rng, requests, lambd, p_get, sigma, mu_get, mu_set,
                 nv_magic, pct=99):
    """Native replay of the ETC queueing loop; ``None`` = use fallback.

    Transfers ``rng``'s MT19937 state into a flat ``array('I')``
    vector, runs the compiled per-request replay, pushes the advanced
    state back (so the rng sits exactly where the Python loop would
    have left it), and returns ``(sojourn_total, pct_sojourn)`` where
    the percentile uses exactly ``repro.sim.stats.percentile``'s
    linear interpolation over the two order statistics the C kernel
    selects.  Every returned double is bit-identical to the pure-Python
    fast path — guaranteed by the load-time self-check plus the
    MT19937 / libm equivalences documented on :data:`_C_SOURCE`.
    """
    lib = native_kernel()
    if lib is None or requests <= 0:
        _COUNTS["native_unavailable"] += 1
        return None
    rank = (pct / 100) * (requests - 1)
    k = int(rank)
    frac = rank - k
    version, internal, gauss = rng.getstate()
    state = array("I", internal)
    out2 = array("d", bytes(16))
    total = lib.qk_etc_run(
        (ctypes.c_uint32 * _MT_WORDS).from_buffer(state),
        requests, k, lambd, p_get, sigma, mu_get, mu_set, nv_magic,
        (ctypes.c_double * 2).from_buffer(out2),
    )
    if total == -1.0:  # alloc failure inside the kernel: state untouched
        _COUNTS["native_unavailable"] += 1
        return None
    rng.setstate((version, tuple(state), gauss))
    _COUNTS["native_calls"] += 1
    if not frac:
        return total, out2[0]
    return total, out2[0] * (1 - frac) + out2[1] * frac


# ---------------------------------------------------------------------------
# Machine-level flat cell replay
# ---------------------------------------------------------------------------


def _flat_plan(machine, program, level):
    """The compiled single-segment plan, iff the cell is provably
    event-free for its whole span (the eligibility proof in the module
    docstring); ``None`` demands the per-cell fallback path."""
    from repro.sim import kernel as simkernel

    if (machine.kernel != simkernel.BATCH or machine.obs is not None
            or machine.tracer.keep_events):
        return None
    if (segments.batchable_dynamic(program)
            < segments.COMPILE_MIN_INSTRUCTIONS):
        return None
    plan = segments.compile_program(program, machine.mode, level,
                                    machine.costs)
    if plan.single is None:
        return None
    if machine.has_pending_io or machine.interrupts.has_pending(0):
        return None
    remaining = plan.single.total * program.repeat
    next_due = machine.sim.peek_next_time()
    if next_due is not None and next_due - machine.sim.now < remaining:
        return None
    return plan


def replay_cells(cells, level=2):
    """Replay many independent (machine, program) cells in one loop.

    Returns one :class:`~repro.core.system.RunResult` per cell, in
    order, with every machine left in exactly the state its own
    ``run_program(program, level)`` call would have produced — the
    property the hypothesis suite (`tests/sim/test_batch.py`) holds
    this function to, interrupt/fault boundaries included.

    Eligible cells (see :func:`_flat_plan`) collapse to flat
    ``array('q')`` vectors of charge spans and retired counts applied
    in one tight loop; everything else takes the ordinary per-cell
    path.  Cells are independent by the experiment contract, so the
    two populations never interact and any interleaving is sound.
    """
    from repro.core.system import RunResult
    from repro.obs.observer import ambient as obs_ambient

    observer = obs_ambient()
    cells = list(cells)
    results = [None] * len(cells)
    flat_index = array("q")
    flat_machines = []
    flat_charges = array("q")
    flat_counts = array("q")
    for i, (machine, program) in enumerate(cells):
        plan = _flat_plan(machine, program, level)
        if plan is None:
            _count("cells_fallback", observer)
            results[i] = machine.run_program(program, level)
            continue
        _count("cells_batched", observer)
        if machine.sim.peek_next_time() is None:
            # Empty heap: the cross-cell event-heap elimination case —
            # this cell provably never interleaves with anything.
            _count("heap_elisions", observer)
        flat_index.append(i)
        flat_machines.append(machine)
        flat_charges.append(plan.single.total * program.repeat)
        flat_counts.append(plan.count * program.repeat)
    for pos, machine in enumerate(flat_machines):
        ns = flat_charges[pos]
        start = machine.sim.now
        if ns:
            # The same two calls Machine._charge makes — one whole-span
            # charge, exactly what _replay_segment does when the next
            # deadline clears the span (eligibility guaranteed it).
            machine.sim.charge(ns)
            machine.tracer.record(Category.GUEST_WORK, ns)
        machine.instructions_retired += flat_counts[pos]
        results[flat_index[pos]] = RunResult(
            elapsed_ns=ns,
            instructions=flat_counts[pos],
            exits=0,
            start_ns=start,
            end_ns=start + ns,
        )
    return results
