"""Analysis utilities: figure regeneration, reporting, sweeps."""

from .._lazy import lazy_exports

# Named like its submodule, so bound now: importing the submodule
# first would otherwise rebind the name to the module.
from .sweep import sweep

__all__ = [
    "figure1_data", "figure2_data", "figure3_data", "figure4_data",
    "figure5_data", "figure6_data", "all_figures",
    "format_table", "format_series",
    "sweep", "SweepResult",
    "chaos_point", "chaos_sweep", "classify_reply",
    "leakage_snr", "cpa_success_curve", "timing_attack_success_curve",
    "SuccessCurve",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": "chaos_point chaos_sweep",
    ".figures": "all_figures figure1_data figure2_data figure3_data "
                "figure4_data figure5_data figure6_data",
    ".report": "format_series format_table",
    ".sidechannel_metrics": "SuccessCurve cpa_success_curve leakage_snr "
                            "timing_attack_success_curve",
    ".sweep": "SweepResult",
    "..protocols.gateway_runtime": "classify_reply",
})
