"""Analysis utilities: breakdowns, the paper's HW-model methodology,
figure rendering, the Table-3 footprint audit, and report formatting."""

from repro.analysis.breakdown import exit_reason_profile, vmcs_access_share
from repro.analysis.figures import bar_chart, line_plot
from repro.analysis.hw_model import scale_sw_to_hw
from repro.analysis.loc import audit as loc_audit
from repro.analysis.report import format_table, render_result

__all__ = [
    "bar_chart",
    "exit_reason_profile",
    "format_table",
    "render_result",
    "line_plot",
    "loc_audit",
    "scale_sw_to_hw",
    "vmcs_access_share",
]
