"""The zero-overhead probe seam every instrumented layer shares.

This module is deliberately tiny and imports nothing from the rest of
``repro`` at runtime: any module — crypto, protocols, hardware, core —
can consult it without creating an import cycle.  It holds exactly one
piece of state, :data:`active`, the currently installed
:class:`~repro.observability.spans.Telemetry` context (or ``None``).

The contract mirrors :class:`~repro.crypto.trace.TraceRecorder`: when
no telemetry is installed, an instrumented hot path pays **one
attribute read and one ``if``** per probe point and behaves
identically.  Cool paths may use the :func:`span` / :func:`event`
conveniences, which fold the check into one call.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spans import Span, Telemetry

#: The installed telemetry context; ``None`` means telemetry is off and
#: every probe point is a single dead ``if``.
active: Optional["Telemetry"] = None

# ``contextlib.nullcontext`` is reentrant and stateless, so one shared
# instance serves every disabled probe without an allocation.
_NULL = contextlib.nullcontext()


@contextlib.contextmanager
def activate(telemetry: "Telemetry") -> Iterator["Telemetry"]:
    """Install ``telemetry`` for the duration of a ``with`` block.

    Restores whatever was installed before (usually ``None``), so
    nested activations and test fixtures compose safely.
    """
    global active
    previous = active
    active = telemetry
    try:
        yield telemetry
    finally:
        active = previous


def span(name: str, **attrs):
    """A span context manager, or a shared null context when disabled.

    For cool paths only (handshakes, recovery actions, supervisor
    dispatch): the disabled cost is one call and no allocation.  Hot
    paths (the record layer) should read :data:`active` once and branch
    explicitly.  ``with probe.span(...) as sp:`` binds ``sp`` to the
    live :class:`~repro.observability.spans.Span` — or ``None`` when
    telemetry is off, so attribute enrichment can be guarded.
    """
    telemetry = active
    if telemetry is None:
        return _NULL
    return telemetry.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a point event on the active telemetry, if any."""
    telemetry = active
    if telemetry is not None:
        telemetry.event(name, **attrs)
