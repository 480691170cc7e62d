"""Unified telemetry plane: spans, metrics, attribution, export.

Only :mod:`~repro.observability.probe` — the zero-overhead seam every
instrumented layer consults — is imported eagerly.  Everything else
loads lazily (PEP 562): instrumented modules deep in the stack (e.g.
:mod:`repro.hardware.battery`) import ``observability.probe`` at module
load, and an eager import of :mod:`~repro.observability.scenario` from
here would cycle straight back through the protocol stack.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from . import probe

__all__ = [
    "probe",
    "Telemetry",
    "Span",
    "SpanEvent",
    "derive_trace_id",
    "MetricsRegistry",
    "Counter",
    "attach_ledger",
    "record_cycles",
    "handshake_cycles",
    "modexp_cycles",
    "span_rollup",
    "phase_energy_mj",
    "reconcile_energy",
    "EnergyReconciliation",
    "to_jsonl",
    "prometheus_text",
    "span_tree",
    "flamegraph_folds",
    "fleet_jsonl",
    "fleet_flamegraph_folds",
    "rollup_table",
    "run_gateway_chaos",
    "ScenarioResult",
    "TraceContext",
    "FleetTraceStore",
    "Journey",
    "WindowedSeries",
    "QuantileSketch",
    "register_series",
    "SloSpec",
    "SloEngine",
    "BurnRatePolicy",
    "Alert",
    "FleetWatch",
    "FleetwatchResult",
    "run_fleetwatch",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".attribution": "record_cycles handshake_cycles modexp_cycles span_rollup "
                    "phase_energy_mj reconcile_energy EnergyReconciliation",
    ".export": "to_jsonl prometheus_text span_tree "
               "flamegraph_folds fleet_jsonl fleet_flamegraph_folds "
               "rollup_table",
    ".fleetwatch": "FleetWatch FleetwatchResult run_fleetwatch",
    ".metrics": "MetricsRegistry Counter attach_ledger QuantileSketch",
    ".scenario": "run_gateway_chaos ScenarioResult",
    ".slo": "SloSpec SloEngine BurnRatePolicy Alert",
    ".spans": "Telemetry Span SpanEvent derive_trace_id",
    ".timeseries": "WindowedSeries register_series",
    ".tracecontext": "TraceContext FleetTraceStore Journey",
})
