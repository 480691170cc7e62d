"""Analysis utilities: figure regeneration, reporting, sweeps."""

from ..protocols.gateway_runtime import classify_reply
from .chaos import chaos_point, chaos_sweep
from .figures import (
    all_figures,
    figure1_data,
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
)
from .report import format_series, format_table
from .sidechannel_metrics import (
    SuccessCurve,
    cpa_success_curve,
    leakage_snr,
    timing_attack_success_curve,
)
from .sweep import SweepResult, sweep

__all__ = [
    "figure1_data", "figure2_data", "figure3_data", "figure4_data",
    "figure5_data", "figure6_data", "all_figures",
    "format_table", "format_series",
    "sweep", "SweepResult",
    "chaos_point", "chaos_sweep", "classify_reply",
    "leakage_snr", "cpa_success_curve", "timing_attack_success_curve",
    "SuccessCurve",
]
