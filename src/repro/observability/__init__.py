"""Unified telemetry plane: spans, metrics, attribution, export.

Every export loads lazily (PEP 562), :mod:`~repro.observability.probe`
— the zero-overhead seam every instrumented layer consults — included:
instrumented modules deep in the stack (e.g.
:mod:`repro.hardware.battery`) import ``observability.probe`` at module
load, and an eager import of :mod:`~repro.observability.scenario` from
here would cycle straight back through the protocol stack.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".attribution": "phase_energy_mj",
    ".probe": "probe",
    ".spans": "Telemetry",
})
