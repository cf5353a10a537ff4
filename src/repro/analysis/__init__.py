"""repro.analysis — FLOP audits and experiment reporting."""

from repro.analysis.flops import (
    model_flops,
    count_model_macs,
    probe_forward,
    layer_table,
)
from repro.analysis.report import format_table, format_percent, ExperimentReport
from repro.analysis.sweep import (
    lar_rate_vs_filter,
    gar_rate_vs_filter,
    gar_rate_vs_input,
    speedup_vs_pool_size,
    addition_reduction_vs_kernel,
    speedup_vs_bandwidth,
    speedup_vs_batch,
)

__all__ = [
    "model_flops",
    "count_model_macs",
    "probe_forward",
    "layer_table",
    "format_table",
    "format_percent",
    "ExperimentReport",
    "lar_rate_vs_filter",
    "gar_rate_vs_filter",
    "gar_rate_vs_input",
    "speedup_vs_pool_size",
    "addition_reduction_vs_kernel",
    "speedup_vs_bandwidth",
    "speedup_vs_batch",
]
