"""Native replay of the memcached ETC queueing loop (paper Fig. 8).

One Fig. 8 load point replays 30,000 requests through
:func:`repro.workloads.memcached._queueing_run_fast`'s per-request
segment; in Python, that loop is the largest single cost of a cold
``repro all``.  This module runs the same segment in a compile-once C
loop that embeds a bit-exact MT19937 (CPython's generator) and links
the same libm as :mod:`math`, so every draw, every ``log``/``exp`` and
the left-folded sojourn sum are the doubles the Python fast path
produces.  :mod:`repro.workloads.memcached` dispatches here by
workload shape; a ``None`` return means "use ``_queueing_run_fast``".

The tier comes up once per process, on the first compiled-shape run:

* ``REPRO_BATCH_NATIVE=0`` disables it;
* the library is built with the system C compiler into a
  content-hash-named shared object in the build cache
  (``REPRO_BATCH_CACHE``, else ``.batch_cache/`` at the repo root,
  else a per-user temp directory), which must be owned by the current
  user and writable by no one else, because loading a library runs its
  constructors;
* a self-check replays identically seeded
  :class:`~repro.sim.rng.DeterministicRng` streams through
  ``_queueing_run_fast`` and the C loop, and any difference in
  ``(avg, p99)`` or in the final generator state disables the tier
  (e.g. a libm whose ``log``/``exp`` round differently from
  CPython's).  It runs on every load; its verdict is never cached.

:func:`native_status` names the outcome.  A fallback is never silent:
the first one in a process prints one line naming the reason on
stderr, unless the tier was disabled on purpose.
"""

import ctypes
import math
import os
import stat
import subprocess
import sys
import tempfile
from array import array
from hashlib import sha256
from pathlib import Path
from shutil import which

from repro.sim.rng import DeterministicRng
from repro.workloads import memcached

#: Env var: set to ``0`` to disable the native tier (every
#: compiled-shape run then takes ``_queueing_run_fast``).
NATIVE_ENV_VAR = "REPRO_BATCH_NATIVE"

#: Env var: overrides the build-cache directory for the native kernel.
CACHE_ENV_VAR = "REPRO_BATCH_CACHE"

#: Tier status, as :func:`native_status` reports it.
OK = "ok"
DISABLED = f"disabled ({NATIVE_ENV_VAR}=0)"
NO_COMPILER = "no C compiler"
BUILD_FAILED = "build failed"
LOAD_FAILED = "load failed"
SELF_CHECK_MISMATCH = "self-check mismatch"
UNSAFE_CACHE_DIR = "unsafe cache dir"

#: MT19937 state width: 624 key words plus the cursor.
_MT_WORDS = 625

#: The p99 the Fig. 8 sweep reports.
_PCT = 99

#: The compiled replay of ``memcached._queueing_run_fast``'s
#: per-request segment, with CPython's MT19937 inlined (genrand_uint32
#: and the 53-bit double conversion exactly as _randommodule.c).  The
#: sojourn total accumulates in generation order — the same left fold
#: as ``memcached._mean`` — and the two order statistics a
#: linear-interpolation percentile needs come from an O(n) quickselect
#: (order statistics are value-exact regardless of the selection
#: algorithm; the data is sojourn times, so no NaNs).  Compiled with
#: -ffp-contract=off so no fused multiply-add changes a rounding the
#: interpreter would have performed.
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
# Build, load, self-check
# ---------------------------------------------------------------------------

#: The probe's outcome: ``(library or None, status)``; ``None`` until
#: the first compiled-shape run of the process.
_probe = None

#: Native replays and fallbacks since process start or the last
#: :func:`reset_native_stats` (pinned per experiment by tier-1's
#: host-work counts).
_COUNTS = {"calls": 0, "fallbacks": 0}

#: Whether this process has already reported a fallback on stderr.
_warned = False


def _cache_dir():
    """Build-cache directory: env override, else ``.batch_cache`` at
    the repo root (gitignored), else a per-user temp directory."""
    # svtlint: disable=SVT001 — build-cache placement is environment
    # config by design; the loaded library is self-checked bit-exact
    # regardless of where it lives.
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    import repro

    root = Path(repro.__file__).resolve().parents[2] / ".batch_cache"
    try:
        root.mkdir(mode=0o700, exist_ok=True)
        probe = root / ".writable"
        probe.write_text("")
        probe.unlink()
        return root
    except OSError:
        return (Path(tempfile.gettempdir())
                / f"repro-batch-cache-{os.getuid()}")


def _private(path):
    """Whether ``path`` is a directory this user owns that no one else
    can write: nobody else can have planted a library in it."""
    info = path.stat()
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _build(cc, cache):
    """Compile the kernel into ``cache`` (content-hash named,
    atomically); returns the shared-object path or ``None``."""
    digest = sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    so_path = cache / f"qk_{digest}.so"
    if so_path.exists():
        return so_path
    c_path = cache / f"qk_{digest}.c"
    tmp_so = cache / f".qk_{digest}.{os.getpid()}.so"
    try:
        c_path.write_text(_C_SOURCE)
        proc = subprocess.run(
            [cc, "-O2", "-std=c99", "-ffp-contract=off", "-fPIC",
             "-shared", "-o", str(tmp_so), str(c_path), "-lm"],
            capture_output=True,
        )
        if proc.returncode != 0:
            return None
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
    except OSError:
        return None
    return so_path


def _replay(lib, get_ns, set_ns, offered_kqps, cfg, rng, requests):
    """One load point through the C loop: ``(avg_us, p99_us)`` exactly
    as ``memcached._queueing_run_fast`` computes them, with ``rng``
    advanced to where that loop leaves it; ``None`` (``rng``
    untouched) when the C side cannot allocate."""
    sigma = cfg.service_jitter_sigma
    half_var = sigma * sigma / 2.0
    rank = (_PCT / 100) * (requests - 1)
    k = int(rank)
    frac = rank - k
    version, internal, gauss = rng.getstate()
    state = array("I", internal)
    out2 = array("d", bytes(16))
    total = lib.qk_etc_run(
        (ctypes.c_uint32 * _MT_WORDS).from_buffer(state),
        requests, k, 1.0 / (1e6 / offered_kqps), cfg.get_fraction,
        sigma, math.log(get_ns) - half_var, math.log(set_ns) - half_var,
        memcached._NV_MAGICCONST,
        (ctypes.c_double * 2).from_buffer(out2),
    )
    if total == -1.0:
        return None
    rng.setstate((version, tuple(state), gauss))
    # stats.percentile's interpolation over the two order statistics.
    p99 = out2[0] if not frac else out2[0] * (1 - frac) + out2[1] * frac
    return total / requests / 1000.0, p99 / 1000.0


def _self_check(lib):
    """The C loop must reproduce ``_queueing_run_fast`` bit for bit —
    ``(avg, p99)`` and the final generator state — on a long run and
    on the 1- and 2-request runs whose p99 ranks sit on the order
    statistics' edges."""
    cfg = memcached.EtcConfig()
    for requests in (2048, 1, 2):
        fast_rng = DeterministicRng(20190613)
        native_rng = DeterministicRng(20190613)
        expected = memcached._queueing_run_fast(
            30_000.0, 52_000.0, 15.0, cfg, fast_rng, requests)
        outcome = _replay(lib, 30_000.0, 52_000.0, 15.0, cfg,
                          native_rng, requests)
        if (outcome != expected
                or native_rng.getstate() != fast_rng.getstate()):
            return False
    return True


def _load():
    """Build, load and self-check the library: ``(lib, status)``."""
    # svtlint: disable=SVT001 — tier selection is environment config by
    # design: pool workers inherit it, and both tiers produce
    # byte-identical results.
    if os.environ.get(NATIVE_ENV_VAR, "1") == "0":
        return None, DISABLED
    cc = which("cc") or which("gcc") or which("clang")
    if cc is None:
        return None, NO_COMPILER
    cache = _cache_dir()
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        private = _private(cache)
    except OSError:
        return None, BUILD_FAILED
    if not private:
        return None, UNSAFE_CACHE_DIR
    so_path = _build(cc, cache)
    if so_path is None:
        return None, BUILD_FAILED
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None, LOAD_FAILED
    lib.qk_etc_run.restype = ctypes.c_double
    lib.qk_etc_run.argtypes = [
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_long, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.POINTER(ctypes.c_double),
    ]
    if not _self_check(lib):
        return None, SELF_CHECK_MISMATCH
    return lib, OK


def _library():
    """The checked library or ``None``; probes once per process."""
    global _probe
    if _probe is None:
        _probe = _load()
    return _probe[0]


def native_status():
    """Why the native tier is or is not in use: :data:`OK` or one of
    the fallback reasons (probing the tier if no run has yet)."""
    _library()
    return _probe[1]


def reset_native_probe():
    """Forget the probe result (tests flip the env gate around this)."""
    global _probe, _warned
    _probe = None
    _warned = False


def native_stats():
    """Native replays and fallbacks since the last reset."""
    return dict(_COUNTS)


def reset_native_stats():
    for key in _COUNTS:
        _COUNTS[key] = 0


def _fall_back(reason):
    global _warned
    _COUNTS["fallbacks"] += 1
    if not _warned and reason != DISABLED:
        _warned = True
        print(f"repro: native memcached queue loop unavailable "
              f"({reason}); using the Python loop", file=sys.stderr)


def queue_replay(get_ns, set_ns, offered_kqps, cfg, rng, requests):
    """``memcached._queueing_run_fast`` in the C loop, or ``None``.

    Same arguments and bit-identical result, rng end position
    included; ``None`` means the tier is unavailable and the caller
    runs the Python loop.  For the compiled shape only (two servers,
    jitter > 0, positive service times, ``key_space > 1``).
    """
    if requests <= 0:
        raise ValueError(f"queue replay needs requests > 0: {requests}")
    lib = _library()
    if lib is None:
        _fall_back(_probe[1])
        return None
    outcome = _replay(lib, get_ns, set_ns, offered_kqps, cfg, rng,
                      requests)
    if outcome is None:
        _fall_back("native allocation failed")
        return None
    _COUNTS["calls"] += 1
    return outcome
