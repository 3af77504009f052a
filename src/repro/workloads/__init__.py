"""Workload models reproducing the paper's evaluation (§6).

One module per benchmark family:

* `repro.workloads.cpuid` — the cpuid microbenchmark (Table 1, Fig. 6)
* `repro.workloads.netperf` — TCP RR / STREAM over virtio-net (Fig. 7)
* `repro.workloads.disk` — ioping / fio over virtio-blk (Fig. 7)
* `repro.workloads.memcached` — key-value store under load (Fig. 8)
* `repro.workloads.tpcc` — TPC-C + PostgreSQL proxy (Fig. 9)
* `repro.workloads.video` — soft-realtime playback (Fig. 10)
* `repro.workloads.channels` — wait-mechanism microbenchmarks (§6.1)

Each module exposes the measurements its figure needs (for example
``run_latency``/``run_bandwidth``).  The registered experiments in
`repro.exp.experiments` call them; the numbers the paper reports are
rows of `repro.exp.claims`.
"""
