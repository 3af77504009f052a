"""The paper's figures as registered experiments (Figs. 6-10).

Each experiment splits into independent cells — one per (mode, bar,
sweep-point) — so the runner can fan them out across processes; merges
are pure functions of the payloads, presented in declared cell order.
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.exp import claims
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Series, Table

_SVT_MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT)


@register
class Fig6Cpuid(Experiment):
    """Figure 6: cpuid execution time across the five systems."""

    name = "fig6"
    title = "Figure 6: cpuid execution time"
    description = "nested cpuid latency: L0/L1/L2 vs SW/HW SVt"
    defaults = {"iterations": 50}
    smoke = {"iterations": 10}

    #: Bar label -> how to run it (level for single-level, else mode).
    BARS = (
        ("L0", {"level": 0}),
        ("L1", {"level": 1}),
        ("L2", {"mode": ExecutionMode.BASELINE}),
        ("SW SVt", {"mode": ExecutionMode.SW_SVT}),
        ("HW SVt", {"mode": ExecutionMode.HW_SVT}),
    )

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(label for label, _ in self.BARS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import cpuid

        return cpuid.run(iterations=params["iterations"],
                         **dict(self.BARS)[cell]).us_per_op

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        l2 = payloads["L2"]
        scalars = {
            "l0_us": payloads["L0"],
            "l1_us": payloads["L1"],
            "l2_us": payloads["L2"],
            "sw_svt_us": payloads["SW SVt"],
            "hw_svt_us": payloads["HW SVt"],
            "sw_speedup": l2 / payloads["SW SVt"],
            "hw_speedup": l2 / payloads["HW SVt"],
            "nested_overhead_vs_l0": l2 / payloads["L0"],
        }
        paper = claims.paper(self.name)
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 6: cpuid execution time (paper: SW "
                      f"{paper['sw_speedup']:.2f}x, HW "
                      f"{paper['hw_speedup']:.2f}x)",
                columns=("System", "Time (us)"),
                rows=[Row(label, (round(us, 2),))
                      for label, us in payloads.items()],
                kind="bars",
                unit=" us",
            )],
            scalars=scalars,
            paper=paper,
        )


#: Figure 7 metric table: key -> (label, runner kwargs, higher-is-better).
FIG7_METRICS = {
    "net_latency": ("Network latency (us)", "net_latency", False),
    "net_bandwidth": ("Network bandwidth (Mbps)", "net_bandwidth", True),
    "disk_randrd_latency": (
        "Disk randrd latency (us)", "disk_rd_latency", False),
    "disk_randwr_latency": (
        "Disk randwr latency (us)", "disk_wr_latency", False),
    "disk_randrd_bandwidth": (
        "Disk randrd bandwidth (KB/s)", "disk_rd_bandwidth", True),
    "disk_randwr_bandwidth": (
        "Disk randwr bandwidth (KB/s)", "disk_wr_bandwidth", True),
}


@register
class Fig7Subsystems(Experiment):
    """Figure 7: I/O subsystem latency/bandwidth, 18 independent cells."""

    name = "fig7"
    title = "Figure 7: I/O subsystems"
    description = "netperf + ioping/fio latency and bandwidth speedups"
    defaults = {"net_operations": 12, "disk_operations": 10}
    smoke = {"net_operations": 6, "disk_operations": 5}

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(
            f"{metric}:{mode}"
            for metric in FIG7_METRICS
            for mode in ExecutionMode.ALL
        )

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import disk, netperf

        metric, mode = cell.split(":")
        kind = FIG7_METRICS[metric][1]
        if kind == "net_latency":
            return netperf.run_latency(
                mode, operations=params["net_operations"])
        if kind == "net_bandwidth":
            return netperf.run_bandwidth(mode)
        if kind == "disk_rd_latency":
            return disk.run_latency(
                mode, write=False, operations=params["disk_operations"])
        if kind == "disk_wr_latency":
            return disk.run_latency(
                mode, write=True, operations=params["disk_operations"])
        if kind == "disk_rd_bandwidth":
            return disk.run_bandwidth(mode, write=False)
        return disk.run_bandwidth(mode, write=True)

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows: list[Row] = []
        scalars: dict[str, Any] = {}
        paper = claims.paper(self.name)
        for metric, (label, _kind, higher) in FIG7_METRICS.items():
            base = payloads[f"{metric}:{ExecutionMode.BASELINE}"]
            sw_value = payloads[f"{metric}:{ExecutionMode.SW_SVT}"]
            hw_value = payloads[f"{metric}:{ExecutionMode.HW_SVT}"]
            if higher:
                sw, hw = sw_value / base, hw_value / base
            else:
                sw, hw = base / sw_value, base / hw_value
            rows.append(Row(
                label,
                (f"{base:.0f}", f"{sw:.2f}x", f"{hw:.2f}x"),
                paper=f"{paper[f'{metric}_base']:g} / "
                      f"{paper[f'{metric}_sw_speedup']:.2f} / "
                      f"{paper[f'{metric}_hw_speedup']:.2f}",
            ))
            scalars[f"{metric}_base"] = base
            scalars[f"{metric}_sw_speedup"] = sw
            scalars[f"{metric}_hw_speedup"] = hw
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 7: I/O subsystems",
                columns=("Metric", "Baseline", "SW SVt", "HW SVt"),
                rows=rows,
            )],
            scalars=scalars,
            paper=paper,
        )


@register
class Fig8Memcached(Experiment):
    """Figure 8: memcached latency vs offered load, baseline vs SVt."""

    name = "fig8"
    title = "Figure 8: memcached latency vs load"
    description = "ETC workload sweep: avg/p99 latency against the SLA"
    defaults = {"seed": 7, "requests": 30_000}
    smoke = {"requests": 5_000}

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return _SVT_MODES

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import memcached

        result = memcached.run(cell, seed=params["seed"],
                               requests=params["requests"])
        return {
            "service_get_us": result.service_get_us,
            "service_set_us": result.service_set_us,
            "points": [[p.offered_kqps, p.avg_us, p.p99_us]
                       for p in result.points],
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        from repro.workloads import memcached

        base = payloads[ExecutionMode.BASELINE]
        svt = payloads[ExecutionMode.SW_SVT]
        p99, avg = memcached.headline_improvements(base["points"],
                                                   svt["points"])
        paper = claims.paper(self.name)
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 8: memcached latency (us) vs load, "
                      f"SLA {memcached.SLA_US:.0f} us",
                columns=("kQPS", "base avg", "base p99", "SVt avg",
                         "SVt p99"),
                rows=[
                    Row(f"{bp[0]:.1f}",
                        (f"{bp[1]:.0f}", f"{bp[2]:.0f}",
                         f"{sp[1]:.0f}", f"{sp[2]:.0f}"))
                    for bp, sp in zip(base["points"], svt["points"])
                ],
            )],
            series=[
                Series("baseline p99",
                       [(p[0], p[2]) for p in base["points"]]),
                Series("SVt p99",
                       [(p[0], p[2]) for p in svt["points"]]),
            ],
            scalars={
                "p99_improvement": p99,
                "avg_improvement": avg,
                "base_max_kqps_in_sla":
                    memcached.max_load_within_sla(base["points"]),
                "svt_max_kqps_in_sla":
                    memcached.max_load_within_sla(svt["points"]),
                "base_service_get_us": base["service_get_us"],
                "svt_service_get_us": svt["service_get_us"],
            },
            paper=paper,
            notes=(
                f"p99 within SLA: {p99:.2f}x (paper "
                f"{paper['p99_improvement']:.2f}x); avg: {avg:.2f}x "
                f"(paper {paper['avg_improvement']:.2f}x)",
            ),
            meta={
                "plot_title": "p99 latency vs offered load "
                              "(clamped at 1000 us)",
                "y_ceiling": 1000,
                "x_label": "kQPS",
                "y_label": " us",
            },
        )


@register
class Fig9Tpcc(Experiment):
    """Figure 9: TPC-C throughput, baseline vs SVt."""

    name = "fig9"
    title = "Figure 9: TPC-C"
    description = "TPC-C/PostgreSQL transactions per minute"
    defaults = {"transactions": 3}
    smoke = {"transactions": 2}

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return _SVT_MODES

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import tpcc

        result = tpcc.run(cell, transactions=params["transactions"])
        return {"ktpm": result.ktpm, "txn_ms": result.txn_ms}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        base = payloads[ExecutionMode.BASELINE]["ktpm"]
        svt = payloads[ExecutionMode.SW_SVT]["ktpm"]
        paper = claims.paper(self.name)
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title=f"Figure 9: TPC-C (paper: "
                      f"{paper['baseline_ktpm']:.2f} ktpm, "
                      f"{paper['speedup']:.2f}x)",
                columns=("System", "ktpm", "Speedup"),
                rows=[
                    Row("Baseline", (f"{base:.2f}", "1.00x")),
                    Row("SVt", (f"{svt:.2f}", f"{svt / base:.2f}x")),
                ],
            )],
            scalars={"baseline_ktpm": base, "svt_ktpm": svt,
                     "speedup": svt / base},
            paper=paper,
        )


@register
class Fig10Video(Experiment):
    """Figure 10: dropped frames over five minutes of playback."""

    name = "fig10"
    title = "Figure 10: dropped frames"
    description = "soft-realtime video playback drop counts"
    defaults = {"seed": 7}

    FPS = (24, 60, 120)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(f"{fps}:{mode}"
                     for fps in self.FPS for mode in _SVT_MODES)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import video

        fps, mode = cell.split(":")
        result = video.run(mode, fps=int(fps), seed=params["seed"])
        return {"dropped": result.dropped, "frames": result.frames,
                "burst_us": result.burst_us}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows: list[Row] = []
        scalars: dict[str, Any] = {}
        paper = claims.paper(self.name)
        for fps in self.FPS:
            base = payloads[f"{fps}:{ExecutionMode.BASELINE}"]
            svt = payloads[f"{fps}:{ExecutionMode.SW_SVT}"]
            rows.append(Row(
                f"{fps} FPS",
                (str(base["dropped"]), str(svt["dropped"])),
                paper=f"{paper[f'dropped_{fps}_baseline']}"
                      f"/{paper[f'dropped_{fps}_svt']}",
            ))
            scalars[f"dropped_{fps}_baseline"] = base["dropped"]
            scalars[f"dropped_{fps}_svt"] = svt["dropped"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 10: dropped frames over 5 min",
                columns=("Rate", "Baseline drops", "SVt drops"),
                rows=rows,
            )],
            scalars=scalars,
            paper=paper,
        )
