#!/usr/bin/env python3
"""memcached under load — the Figure-8 experiment with an ASCII plot.

Sweeps offered load on the simulated nested memcached server (Facebook
ETC mix) with and without SW SVt, plots 99th-percentile latency against
the paper's SLA, and prints the headline improvements.

Usage::

    python examples/memcached_sla.py
"""

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.workloads import memcached

PLOT_CEILING_US = 1000.0
WIDTH = 56


def bar(value_us):
    filled = min(int(value_us / PLOT_CEILING_US * WIDTH), WIDTH)
    return "#" * filled


def main():
    baseline = memcached.run(ExecutionMode.BASELINE, requests=20_000)
    svt = memcached.run(ExecutionMode.SW_SVT, requests=20_000)

    print("memcached (Facebook ETC), p99 latency vs offered load")
    print(f"service time: baseline {baseline.service_get_us:.0f} us, "
          f"SVt {svt.service_get_us:.0f} us (GET)")
    sla_col = int(memcached.SLA_US / PLOT_CEILING_US * WIDTH)
    print(" " * 24 + " " * sla_col + f"| SLA {memcached.SLA_US:.0f}us")
    for base_point, svt_point in zip(baseline.points, svt.points):
        load = base_point.offered_kqps
        print(f"{load:5.1f}k  base p99 {base_point.p99_us:7.0f}us "
              f"{bar(base_point.p99_us)}")
        print(f"        svt  p99 {svt_point.p99_us:7.0f}us "
              f"{bar(svt_point.p99_us)}")

    p99_ratio, avg_ratio = memcached.headline_improvements(baseline.points,
                                                           svt.points)
    paper = claims.paper("fig8")
    print(f"\np99 improvement within SLA: {p99_ratio:.2f}x "
          f"(paper: {paper['p99_improvement']:.2f}x)")
    print(f"avg improvement:            {avg_ratio:.2f}x "
          f"(paper: {paper['avg_improvement']:.2f}x)")
    print("max in-SLA load: baseline "
          f"{memcached.max_load_within_sla(baseline.points):.1f} kQPS -> "
          f"SVt {memcached.max_load_within_sla(svt.points):.1f} kQPS")


if __name__ == "__main__":
    main()
