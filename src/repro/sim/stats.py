"""Percentile helper for latency distributions (Fig. 8's p99)."""

import math


def percentile(samples, pct):
    """Linear-interpolation percentile (same convention as numpy's
    default), ``pct`` in [0, 100]."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of [0, 100]")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of empty sample set")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac
