"""Every number the paper reports, with the check tier-1 applies to it.

One :class:`Claim` per compared number.  Nothing else in the repository
types a paper number: the experiments build their Result ``paper``
mappings, titles and notes from these rows (:func:`paper`,
:func:`paper_value`), ``tests/test_paper_claims.py`` asserts every row,
and EXPERIMENTS.md's paper-vs-measured tables are rendered from them.
Pure data: this module imports nothing from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

#: Statuses.
EXACT = "exact"                  # a calibration anchor: structural
CLOSE = "within tolerance"
DEVIATION = "deliberate deviation"
READING = "figure reading"       # the paper gives only an approximate value
DERIVED = "derived"              # computed from the paper's own numbers
DEFINITION = "definition"        # an input the paper fixes, not a result
SCALE = "scale comparison"       # compared by ranking, not by value


@dataclass(frozen=True)
class Claim:
    """One compared number.

    ``check`` is applied to the value ``x`` at ``at`` in the document:
    ``("rel", t)``: ``|x - paper| <= t * |paper|``; ``("abs", t)``:
    ``|x - paper| <= t``; ``("abs<", t)``: ``|x - paper| < t``;
    ``("closed", lo, hi)``: ``lo <= x <= hi``; ``("open", lo, hi)``:
    ``lo < x < hi`` (a ``None`` bound is absent); ``("eq",)``:
    ``x == paper``.  ``("test", name)`` names the hand-written test that
    checks the claim (an ordering, a derived quantity or a library
    call); it reads its paper value from the row.
    """

    experiment: str
    #: Scalar key, or ``(row label, column)``; for a ``"test"`` claim on
    #: a quantity in no document, the name its test computes.
    at: Union[str, tuple[str, str]]
    paper: Any                   # the value as the paper states it
    check: tuple[Any, ...]
    status: str
    #: Also carried in the Result's ``paper`` mapping under ``at``.
    mapped: bool = False
    #: What the check compares with when it is not ``paper`` (the target
    #: of a figure reading such as Fig. 6's "~200x").
    target: Optional[float] = None


# The paper's numbers that more than one claim uses.
TABLE1_TOTAL_US = 10.40          # Table 1: one nested cpuid, baseline
SW_SVT_SPEEDUP = 1.23            # Fig. 6 and §6.1
HW_SVT_SPEEDUP = 1.94            # Fig. 6

#: Table 1's parts: (row label, scalar key, paper µs, its check, paper
#: %).  Each part is held to 1% and to 0.02 us; the check is the
#: stricter of the two (0.02 us only for the 4.89 us L0 handler).
TABLE1_PARTS = (
    ("0 L2", "l2_us", 0.05, ("rel", 0.01), 0.47),
    ("1 Switch L2<->L0", "switch_l2_l0_us", 0.81, ("rel", 0.01), 7.75),
    ("2 Transform vmcs02/vmcs12", "transform_vmcs02_vmcs12_us", 1.29,
     ("rel", 0.01), 12.45),
    ("3 L0 handler", "l0_handler_us", 4.89, ("abs", 0.02), 47.02),
    ("4 Switch L0<->L1", "switch_l0_l1_us", 1.40, ("rel", 0.01), 13.43),
    ("5 L1 handler", "l1_handler_us", 1.96, ("rel", 0.01), 18.87),
)

_TABLE3 = ("test", "test_table3_prototype_footprint")
_TABLE4 = ("test", "test_table4_machine_parameters")
_FIG10 = ("test", "test_fig10_dropped_frames")

# experiment, location, paper value, check, status, mapped, target
CLAIMS: tuple[Claim, ...] = (
    Claim("table1", "total_us", TABLE1_TOTAL_US, ("abs", 0.02), EXACT, True),
    *(Claim("table1", key, us, check, EXACT)
      for _label, key, us, check, _pct in TABLE1_PARTS),
    *(Claim("table1", (label, "Perc. (%)"), pct, ("abs", 0.2), EXACT)
      for label, _key, _us, _check, pct in TABLE1_PARTS),
    # The lines the SW SVt prototype added and removed.
    Claim("table3", "qemu_added", 654, _TABLE3, SCALE, True),
    Claim("table3", "qemu_removed", 10, _TABLE3, SCALE),
    Claim("table3", "linux_kvm_added", 2432, _TABLE3, SCALE, True),
    Claim("table3", "linux_kvm_removed", 51, _TABLE3, SCALE),
    Claim("table3", "linux_other_added", 227, _TABLE3, SCALE, True),
    Claim("table3", "linux_other_removed", 2, _TABLE3, SCALE),
    Claim("table4", ("L0", "Description"),
          "2xIntel E5-2630v3 (2.4GHz, 8 cores, 2-SMT), 2x64GB RAM, "
          "Intel X540-AT2 (10Gb)", ("eq",), EXACT),
    Claim("table4", ("L1", "Description"), "6 vCPUs (1 reserved), 50GB "
          "RAM, virtio-net-pci+vhost, virtio disk @ ramfs", ("eq",), EXACT),
    Claim("table4", ("L2", "Description"), "3 vCPUs (1 reserved), 35GB "
          "RAM, virtio-net-pci+vhost, virtio disk @ ramfs", ("eq",), EXACT),
    Claim("table4", "host_hw_threads", 32, _TABLE4, EXACT),
    Claim("table4", "l2_usable_vcpus", 2, _TABLE4, EXACT),

    Claim("fig6", "l0_us", 0.05, ("rel", 0.01), EXACT, True),
    Claim("fig6", "l2_us", TABLE1_TOTAL_US, ("abs", 0.02), EXACT, True),
    Claim("fig6", "sw_speedup", SW_SVT_SPEEDUP, ("abs", 0.01), EXACT, True),
    Claim("fig6", "hw_speedup", HW_SVT_SPEEDUP, ("abs", 0.01), EXACT, True),
    Claim("fig6", "nested_overhead_vs_l0", 200, ("rel", 0.02), READING,
          target=208),
    # Baseline absolute, SW and HW speedups per metric.
    Claim("fig7", "net_latency_base", 163.0, ("rel", 0.06), CLOSE, True),
    Claim("fig7", "net_latency_sw_speedup", 1.10, ("abs", 0.06), CLOSE, True),
    Claim("fig7", "net_latency_hw_speedup", 2.38, ("abs", 0.12), CLOSE, True),
    Claim("fig7", "net_bandwidth_base", 9387.0, ("rel", 0.03), CLOSE, True),
    Claim("fig7", "net_bandwidth_sw_speedup", 1.00, ("abs", 0.05), CLOSE,
          True),
    Claim("fig7", "net_bandwidth_hw_speedup", 1.12, ("abs", 0.05), CLOSE,
          True),
    Claim("fig7", "disk_randrd_latency_base", 126.0, ("rel", 0.06), CLOSE,
          True),
    Claim("fig7", "disk_randrd_latency_sw_speedup", 1.30, ("abs", 0.08),
          CLOSE, True),
    Claim("fig7", "disk_randrd_latency_hw_speedup", 2.18, ("abs", 0.25),
          CLOSE, True),
    Claim("fig7", "disk_randwr_latency_base", 179.0, ("rel", 0.06), CLOSE,
          True),
    Claim("fig7", "disk_randwr_latency_sw_speedup", 1.05, ("abs", 0.05),
          CLOSE, True),
    Claim("fig7", "disk_randwr_latency_hw_speedup", 2.26, ("abs", 0.15),
          CLOSE, True),
    Claim("fig7", "disk_randrd_bandwidth_base", 87_136.0, ("rel", 0.10),
          CLOSE, True),
    # Bounded by the per-reflection SW saving that the Table 1 / Fig. 6
    # calibration pins; EXPERIMENTS.md explains the gap.
    Claim("fig7", "disk_randrd_bandwidth_sw_speedup", 1.55,
          ("closed", 1.2, 1.6), DEVIATION, True),
    Claim("fig7", "disk_randrd_bandwidth_hw_speedup", 2.31,
          ("closed", 2.0, 2.6), CLOSE, True),
    Claim("fig7", "disk_randwr_bandwidth_base", 55_769.0, ("rel", 0.05),
          CLOSE, True),
    Claim("fig7", "disk_randwr_bandwidth_sw_speedup", 1.18, ("abs", 0.06),
          CLOSE, True),
    Claim("fig7", "disk_randwr_bandwidth_hw_speedup", 2.60, ("abs", 0.15),
          CLOSE, True),
    Claim("fig8", "sla_us", 500.0, ("test", "test_fig8_paper_claims"),
          DEFINITION, True),
    Claim("fig8", "p99_improvement", 2.20, ("abs", 0.35), CLOSE, True),
    Claim("fig8", "avg_improvement", 1.43, ("abs", 0.25), CLOSE, True),
    Claim("fig9", "baseline_ktpm", 6.37, ("rel", 0.03), CLOSE, True),
    Claim("fig9", "speedup", 1.18, ("abs", 0.05), CLOSE, True),
    # Dropped frames over five minutes.
    Claim("fig10", "dropped_24_baseline", 0, ("eq",), EXACT, True),
    Claim("fig10", "dropped_24_svt", 0, ("eq",), EXACT, True),
    Claim("fig10", "dropped_60_baseline", 3, ("closed", None, 8), CLOSE,
          True),
    Claim("fig10", "dropped_60_svt", 0, _FIG10, CLOSE, True),
    Claim("fig10", "dropped_120_baseline", 40, ("abs", 10), CLOSE, True),
    Claim("fig10", "dropped_120_svt", 26, ("abs", 8), CLOSE, True),
    Claim("fig10", "drop_ratio_120", 0.65, _FIG10, CLOSE),

    Claim("sec61", "observations", 5,
          ("test", "test_sec61_channel_observations"), EXACT),
    Claim("sec61", "mwait_saving_us", 2.0,
          ("test", "test_sec61_mechanisms_on_nested_cpuid"), CLOSE),
    Claim("sec61", "mwait_speedup", SW_SVT_SPEEDUP, ("abs<", 0.02), CLOSE,
          True),
    Claim("sec62", "vmcs_access_share", 0.04, ("open", 0.01, 0.10), READING,
          True),
    Claim("ablation_lazy_split", "hw_speedup_at_0.423", HW_SVT_SPEEDUP,
          ("abs", 0.02), EXACT, True),
    # SW and HW SVt's nested cpuid times that the paper's numbers imply.
    Claim("ablation_wait", "smt_mwait_us",
          round(TABLE1_TOTAL_US / SW_SVT_SPEEDUP, 2), ("abs", 0.05),
          DERIVED, True),
    Claim("deep", "l2_svt_us", round(TABLE1_TOTAL_US / HW_SVT_SPEEDUP, 2),
          ("test", "test_ablation_deep_nesting"), DERIVED),
)


def rows(experiment: str) -> tuple[Claim, ...]:
    """One experiment's claims, in table order."""
    return tuple(claim for claim in CLAIMS if claim.experiment == experiment)


def paper_value(experiment: str, at: Union[str, tuple[str, str]]) -> Any:
    """The paper's value of one claim (``KeyError`` if there is none)."""
    for claim in rows(experiment):
        if claim.at == at:
            return claim.paper
    raise KeyError(f"no claim {experiment}:{at}")


def paper(experiment: str) -> dict[str, Any]:
    """The ``paper`` mapping of an experiment's Result."""
    return {claim.at: claim.paper for claim in rows(experiment)
            if claim.mapped and isinstance(claim.at, str)}
