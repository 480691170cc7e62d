"""Virtual-time hierarchical spans with deterministic identities.

A :class:`Telemetry` context owns one trace: a tree of :class:`Span`
objects stamped from a virtual clock (anything with a ``.now``
attribute — normally the
:class:`~repro.protocols.reliable.VirtualClock` the gateway runtime
schedules on), never the wall clock.  Identities are reproducible by
construction:

* the **trace id** is an FNV-1a hash of the run's seed material, so the
  same seeded scenario always produces the same id;
* **span ids** are a sequential counter in creation order;
* timestamps are virtual seconds.

Every span accumulates the energy (mJ) and cycles charged while it was
innermost — :mod:`repro.observability.attribution` feeds these from
``Battery.drain_mj`` and the calibrated §3.2 cycle model — so a
roll-up over the finished tree answers the paper's Fig. 3/4 question:
*which protocol phase burned the battery?*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import LabelKey, MetricsRegistry, _label_key

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a — deterministic ids with no crypto dependency."""
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return acc


def derive_trace_id(*seed_material) -> str:
    """A 16-hex-digit trace id derived from seed material, not wall
    clock: same seeds, same id, every run."""
    blob = "\x1f".join(repr(part) for part in seed_material).encode("utf-8")
    return f"{fnv1a_64(blob):016x}"


class _WallbackClock:
    """A fallback clock for clock-less use: counts invocations, so
    timestamps stay deterministic (0, 1, 2, ...) rather than wall time."""

    def __init__(self) -> None:
        self._ticks = 0

    @property
    def now(self) -> float:
        tick = self._ticks
        self._ticks += 1
        return float(tick)


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span."""

    time_s: float
    name: str
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass(eq=False, slots=True)
class Span:
    """One node of the trace tree.

    ``energy_mj`` / ``cycles`` are the amounts charged while this span
    was the *innermost* open span (self cost); roll-ups add descendants
    back in for inclusive totals.  Spans compare by identity, so a span
    of one trace never matches an open span of another.  A span is its
    own context manager: ``with telemetry.span(...)`` closes it through
    its owning :class:`Telemetry`.  Spans are slotted (no per-instance
    ``__dict__``): a fleet run keeps thousands of them alive.  For the
    same reason ``events`` stays a shared empty tuple until the span's
    first event, when :meth:`Telemetry.event` gives it a list: few
    spans carry events.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    events: Sequence[SpanEvent] = ()
    energy_mj: float = 0.0
    cycles: float = 0.0
    telemetry: Optional["Telemetry"] = field(default=None, repr=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.telemetry.end_span(self)

    def set(self, **attrs) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_s(self) -> float:
        """Virtual duration (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


class Telemetry:
    """One trace: a span stack, an event log, and a metrics registry.

    ``clock`` may be any object with a ``.now`` attribute (virtual
    seconds); omit it for a deterministic tick counter.  ``seed``
    feeds :func:`derive_trace_id` so the trace id is a pure function of
    the run's seed material.
    """

    def __init__(self, seed=0, clock=None, label: str = "repro") -> None:
        self.clock = clock if clock is not None else _WallbackClock()
        self.registry = MetricsRegistry()
        self._energy_mj = self.registry.counter(
            "repro_telemetry_energy_mj_total",
            "energy attributed through the telemetry plane")
        self._cycles = self.registry.counter(
            "repro_telemetry_cycles_total",
            "cycles attributed through the telemetry plane")
        self.label = label
        self.trace_id = derive_trace_id(label, seed)
        self.spans: List[Span] = []
        self.events: List[SpanEvent] = []
        self._stack: List[Span] = []
        self._next_id = 1
        #: ``(kind, span name)`` -> the counters' label key, so a charge
        #: does not sort a fresh label set.
        self._label_keys: Dict[Tuple[str, str], LabelKey] = {}
        #: Energy/cycles charged while no span was open.
        self.unattributed_mj = 0.0
        self.unattributed_cycles = 0.0

    # -- span lifecycle ------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, **attrs) -> Span:
        """Open a span as a child of the current one (explicit form).

        The span keeps ``attrs`` itself: ``**attrs`` is a fresh dict."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=self._next_id, parent_id=parent, name=name,
                    start_s=float(self.clock.now), attrs=attrs,
                    telemetry=self)
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span``; enforces strict stack discipline.

        A span already force-closed by :meth:`abort_span` is a silent
        no-op — the owning ``with`` block may still unwind after a
        crash handler aborted the stack out from under it.
        """
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            span.end_s = float(self.clock.now)
            return
        if span.end_s is not None and span.attrs.get("aborted") \
                and span not in stack:
            return
        raise RuntimeError(
            f"span {span.name!r} is not the innermost open span")

    def abort_span(self, span: Span, **attrs) -> List[Span]:
        """Force-close ``span`` and everything nested inside it.

        The crash-hygiene primitive: a shard killed mid-span cannot
        unwind its own ``with`` blocks, and leaving its spans on the
        stack would make the *next* shard's spans nest under a dead
        owner.  Every popped span is stamped ``aborted=True`` (plus
        any extra ``attrs``) and closed at the current virtual time.
        Returns the aborted spans, outermost last.
        """
        if span not in self._stack:
            raise RuntimeError(f"span {span.name!r} is not open")
        aborted: List[Span] = []
        while self._stack:
            top = self._stack.pop()
            top.end_s = float(self.clock.now)
            top.set(aborted=True, **attrs)
            aborted.append(top)
            if top is span:
                break
        return aborted

    def abort_where(self, predicate, **attrs) -> List[Span]:
        """Abort the outermost open span matching ``predicate`` (and
        everything nested inside it); returns ``[]`` if none match."""
        for span in self._stack:
            if predicate(span):
                return self.abort_span(span, **attrs)
        return []

    def span(self, name: str, **attrs) -> Span:
        """The usual form: ``with telemetry.span("handshake") as sp:``."""
        return self.start_span(name, **attrs)

    def event(self, name: str, **attrs) -> SpanEvent:
        """A point event, attached to the current span (or the trace).

        The event keeps ``attrs`` itself: ``**attrs`` is a fresh dict."""
        event = SpanEvent(float(self.clock.now), name, attrs)
        current = self._stack[-1] if self._stack else None
        if current is None:
            self.events.append(event)
        elif current.events:
            current.events.append(event)
        else:
            current.events = [event]
        return event

    # -- attribution sinks ---------------------------------------------------

    def _new_label_key(self, kind: str, span: str) -> LabelKey:
        """Build and cache the counters' label key ``kind=…, span=…``."""
        key = self._label_keys[(kind, span)] = _label_key(
            {"kind": kind, "span": span})
        return key

    def add_energy_mj(self, millijoules: float, kind: str = "battery") -> None:
        """Charge ``millijoules`` to the innermost open span.

        The counter is charged first: it rejects a negative amount
        before the span or the unattributed bucket changes."""
        current = self._stack[-1] if self._stack else None
        name = current.name if current is not None else "<none>"
        self._energy_mj.add(self._label_keys.get((kind, name))
                            or self._new_label_key(kind, name), millijoules)
        if current is not None:
            current.energy_mj += millijoules
        else:
            self.unattributed_mj += millijoules

    def add_cycles(self, cycles: float, kind: str = "model") -> None:
        """Charge modelled instruction cycles to the innermost span
        (counter first, like :meth:`add_energy_mj`)."""
        current = self._stack[-1] if self._stack else None
        name = current.name if current is not None else "<none>"
        self._cycles.add(self._label_keys.get((kind, name))
                         or self._new_label_key(kind, name), cycles)
        if current is not None:
            current.cycles += cycles
        else:
            self.unattributed_cycles += cycles

    # -- whole-trace queries -------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans still open (should be empty after a clean run)."""
        return list(self._stack)

    def total_energy_mj(self) -> float:
        """Everything attributed, spans plus unattributed bucket."""
        return sum(s.energy_mj for s in self.spans) + self.unattributed_mj

    def total_cycles(self) -> float:
        """Everything attributed, spans plus unattributed bucket."""
        return sum(s.cycles for s in self.spans) + self.unattributed_cycles

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in creation order."""
        return [s for s in self.spans if s.parent_id == span.span_id]
