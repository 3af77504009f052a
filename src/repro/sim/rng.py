"""Deterministic random source.

Every stochastic choice in the simulator flows through one of these, so a
fixed seed reproduces a run bit-for-bit.  Helpers mirror the distributions
the workload models need (Poisson arrivals, Zipfian key popularity for the
ETC workload, log-normal service jitter).
"""

import bisect
import math
import random
import zlib


class DeterministicRng:
    """Seeded random source with workload-oriented helpers."""

    _zipf_tables = {}  # class-level cache: (n, skew) -> cumulative weights

    def __init__(self, seed=0):
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, label):
        """Derive an independent stream named ``label`` (stable across
        processes — avoids Python's per-process string-hash salt — and
        stable w.r.t. the parent seed, so adding streams does not perturb
        existing ones)."""
        digest = zlib.crc32(f"{self.seed}:{label}".encode("utf-8"))
        return DeterministicRng(digest & 0xFFFFFFFF)

    # -- primitive draws -------------------------------------------------

    def uniform(self, lo, hi):
        return self._random.uniform(lo, hi)

    def randint(self, lo, hi):
        return self._random.randint(lo, hi)

    def choice(self, seq):
        return self._random.choice(seq)

    def random(self):
        return self._random.random()

    def raw_stream(self):
        """The underlying uniform stream as a bound ``random()`` method.

        For fast-path replays (``docs/performance.md``) that inline the
        stdlib samplers bit-exactly: drawing from this stream with the
        same algorithm consumes the identical variates in the identical
        order, so fast and reference paths stay bit-for-bit equal.
        """
        return self._random.random

    def getstate(self):
        """The underlying generator state (MT19937 key + position).

        The native queue loop (``repro.workloads.native_queue``)
        transfers this state into its compiled replay and pushes the
        advanced state back through :meth:`setstate`, so a native
        replay leaves the stream exactly where the equivalent Python
        draws would have.
        """
        return self._random.getstate()

    def setstate(self, state):
        self._random.setstate(state)

    # -- distributions ----------------------------------------------------

    def exponential(self, mean_value):
        """Exponential inter-arrival draw with the given mean."""
        if mean_value <= 0:
            raise ValueError(
                f"exponential mean must be positive: {mean_value}")
        return self._random.expovariate(1.0 / mean_value)

    def lognormal_around(self, mean_value, rel_sigma):
        """Log-normal draw whose *mean* is ``mean_value`` and whose shape
        parameter is ``rel_sigma`` (0 degenerates to the mean)."""
        if rel_sigma <= 0:
            return mean_value
        sigma = rel_sigma
        mu = math.log(mean_value) - sigma * sigma / 2.0
        return self._random.lognormvariate(mu, sigma)

    def zipf_index(self, n, skew=0.99):
        """Draw an index in [0, n) with Zipfian popularity (used by the
        memcached ETC key-popularity model).  Inverse-CDF over a cached
        cumulative-weight table, O(log n) per draw."""
        if n <= 0:
            raise ValueError("zipf over empty domain")
        if n == 1:
            return 0
        cdf = self._zipf_cdf(n, skew)
        return bisect.bisect_left(cdf, self._random.random())

    def _zipf_cdf(self, n, skew):
        key = (n, skew)
        cdf = self._zipf_tables.get(key)
        if cdf is None:
            weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._zipf_tables[key] = cdf
        return cdf

    def bernoulli(self, p):
        """True with probability ``p``."""
        return self._random.random() < p
