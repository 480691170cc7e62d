"""Propagatable trace context for fleet-wide distributed tracing.

A single-runtime trace (PR 4) is one tree under one
:class:`~repro.observability.spans.Telemetry`; a *fleet* trace is not:
one session's crash -> detect -> re-home -> restore journey crosses
shard boundaries, survives in a checkpoint while its owner is dead,
and resumes on a different shard.  The glue is a :class:`TraceContext`
— trace id, parent span id, and baggage (session id, handset class,
shard id) — that rides along three propagation paths:

* **span attributes**: :func:`attach` stamps the context onto a span
  (``ctx.trace`` / ``ctx.parent`` / ``bg.*`` keys), so any span of any
  shard's stream can be claimed by a journey;
* **checkpoints**: :meth:`TraceContext.to_bytes` is a versioned
  length-prefixed codec small enough to ride inside a
  :class:`~repro.fleet.snapshot.SessionSnapshot` — a *warm* restore
  genuinely reads its trace identity from the durable checkpoint, not
  from supervisor memory;
* **fleet memory**: the cold tiers (resumption / re-handshake) carry
  the context the way they carry tickets — via the supervisor.

:class:`FleetTraceStore` is the read side: it partitions spans into
per-shard streams and merges them by ``(virtual time, shard id, span
id)`` into one byte-stable ordering, then stitches per-trace-id
journey trees back out of the merged stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .spans import Span, Telemetry, derive_trace_id

#: Span-attribute keys the context rides on.  The ``ctx.`` / ``bg.``
#: prefixes keep them clear of ordinary instrumentation attributes.
CTX_TRACE = "ctx.trace"
CTX_PARENT = "ctx.parent"
BAGGAGE_PREFIX = "bg."

_CTX_VERSION = 1


@dataclass(frozen=True)
class TraceContext:
    """One propagatable trace identity: id, parent span, baggage."""

    trace_id: str
    parent_span: int = 0
    baggage: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def root(cls, *seed_material, **baggage) -> "TraceContext":
        """A fresh context whose trace id is a pure function of the
        seed material (same seeds, same journey id, every run)."""
        return cls(trace_id=derive_trace_id(*seed_material),
                   parent_span=0,
                   baggage=tuple(sorted((str(k), str(v))
                                        for k, v in baggage.items())))

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Read one baggage value."""
        for name, value in self.baggage:
            if name == key:
                return value
        return default

    def with_baggage(self, **updates) -> "TraceContext":
        """A copy with baggage keys added or replaced (baggage stays
        sorted, so the wire form is canonical)."""
        merged = {name: value for name, value in self.baggage}
        merged.update({str(k): str(v) for k, v in updates.items()})
        return TraceContext(self.trace_id, self.parent_span,
                            tuple(sorted(merged.items())))

    # -- wire form (rides inside SessionSnapshot) ---------------------------

    def to_bytes(self) -> bytes:
        """Versioned, length-prefixed binary form (no pickle —
        contexts cross the same trust boundary checkpoints do)."""
        out: List[bytes] = [bytes([_CTX_VERSION])]
        trace = self.trace_id.encode("ascii")
        out.append(struct.pack(">H", len(trace)))
        out.append(trace)
        out.append(struct.pack(">I", self.parent_span))
        out.append(struct.pack(">H", len(self.baggage)))
        for name, value in self.baggage:
            for blob in (name.encode("utf-8"), value.encode("utf-8")):
                if len(blob) > 0xFFFF:
                    raise ValueError("baggage field too long")
                out.append(struct.pack(">H", len(blob)))
                out.append(blob)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TraceContext":
        """Decode one context; raises ``ValueError`` on damage."""
        if not raw:
            raise ValueError("empty trace context")
        if raw[0] != _CTX_VERSION:
            raise ValueError(f"unknown trace-context version {raw[0]}")
        pos = 1

        def take(count: int) -> bytes:
            nonlocal pos
            if pos + count > len(raw):
                raise ValueError("trace context truncated")
            blob = raw[pos:pos + count]
            pos += count
            return blob

        def take_str() -> str:
            (length,) = struct.unpack(">H", take(2))
            return take(length).decode("utf-8")

        trace_id = take_str()
        (parent_span,) = struct.unpack(">I", take(4))
        (pairs,) = struct.unpack(">H", take(2))
        baggage = tuple((take_str(), take_str()) for _ in range(pairs))
        if pos != len(raw):
            raise ValueError("trace context has trailing bytes")
        return cls(trace_id=trace_id, parent_span=parent_span,
                   baggage=baggage)


def attach(span: Span, ctx: TraceContext) -> Span:
    """Stamp a context onto a span (the span joins the journey)."""
    attrs: Dict[str, object] = {CTX_TRACE: ctx.trace_id,
                                CTX_PARENT: ctx.parent_span}
    for name, value in ctx.baggage:
        attrs[BAGGAGE_PREFIX + name] = value
    return span.set(**attrs)


def context_of(span: Span) -> Optional[TraceContext]:
    """Recover the context stamped on a span, if any."""
    trace_id = span.attrs.get(CTX_TRACE)
    if trace_id is None:
        return None
    baggage = tuple(sorted(
        (key[len(BAGGAGE_PREFIX):], str(value))
        for key, value in span.attrs.items()
        if key.startswith(BAGGAGE_PREFIX)))
    return TraceContext(trace_id=str(trace_id),
                        parent_span=int(span.attrs.get(CTX_PARENT, 0)),
                        baggage=baggage)


def baggage_attrs(ctx: TraceContext) -> Dict[str, object]:
    """The context as event attributes (events join journeys too)."""
    attrs: Dict[str, object] = {CTX_TRACE: ctx.trace_id}
    for name, value in ctx.baggage:
        attrs[BAGGAGE_PREFIX + name] = value
    return attrs


# ---------------------------------------------------------------------------
# The fleet-wide read side
# ---------------------------------------------------------------------------


@dataclass
class Journey:
    """One session's stitched cross-shard trace."""

    trace_id: str
    session: str
    #: ``(stream, span)`` roots in merged order; each root's subtree
    #: lives entirely within its stream.
    roots: List[Tuple[str, Span]]
    #: Recovery tiers seen along the journey (attribute ``tier``).
    tiers: List[str]
    #: Shards visited, in merged order, deduplicated.
    shards: List[str]

    @property
    def span_count(self) -> int:
        return len(self.roots)


class FleetTraceStore:
    """Merges per-shard span streams into one byte-stable ordering.

    Streams may come from one global :class:`Telemetry` partitioned by
    a shard attribute (:meth:`partition` — the fleetwatch path, where
    all shards share one scheduler and one trace), or from genuinely
    independent telemetry objects added one at a time
    (:meth:`add_stream` — the multi-process shape).  Either way the
    merged order is ``(start time, stream id, span id)``: virtual
    time first, then the shard name, then the per-stream sequential
    span id — a total order identical across same-seed runs.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, List[Span]] = {}

    # -- building ------------------------------------------------------------

    def add_stream(self, stream_id: str, spans: Sequence[Span]) -> None:
        """Add (or extend) one shard's span stream."""
        self._streams.setdefault(stream_id, []).extend(spans)

    @classmethod
    def partition(cls, telemetry: Telemetry, key: str = "shard",
                  default: str = "fleet") -> "FleetTraceStore":
        """Split one shared-scheduler trace into per-shard streams.

        A span belongs to the stream named by its ``key`` attribute,
        inherited from the nearest ancestor that has one (a handshake
        span nested under a ``fleet.recover`` span belongs to the
        recovering shard); spans with no shard anywhere above them
        (supervisor work) land in the ``default`` stream.
        """
        store = cls()
        by_id = {span.span_id: span for span in telemetry.spans}
        resolved: Dict[int, str] = {}

        def stream_of(span: Span) -> str:
            cached = resolved.get(span.span_id)
            if cached is not None:
                return cached
            value = span.attrs.get(key)
            if value is not None:
                stream = str(value)
            elif span.parent_id is not None and span.parent_id in by_id:
                stream = stream_of(by_id[span.parent_id])
            else:
                stream = default
            resolved[span.span_id] = stream
            return stream

        for span in telemetry.spans:
            store.add_stream(stream_of(span), [span])
        return store

    # -- the merged view -----------------------------------------------------

    def streams(self) -> List[str]:
        """Stream ids, sorted."""
        return sorted(self._streams)

    def merged(self) -> List[Tuple[float, str, int, Span]]:
        """Every span of every stream as ``(start_s, stream, span_id,
        span)``, in the canonical byte-stable order."""
        out: List[Tuple[float, str, int, Span]] = []
        for stream_id in sorted(self._streams):
            for span in self._streams[stream_id]:
                out.append((span.start_s, stream_id, span.span_id, span))
        out.sort(key=lambda row: (row[0], row[1], row[2]))
        return out

    # -- journeys ------------------------------------------------------------

    def journeys(self) -> Dict[str, Journey]:
        """Stitch the merged stream into per-trace-id journey trees.

        A journey's roots are the context-stamped spans (``ctx.trace``
        attribute) in merged order; milestones like the crash event
        ride inside those spans.  Returns ``{trace_id: Journey}``.
        """
        out: Dict[str, Journey] = {}
        for start_s, stream_id, span_id, span in self.merged():
            ctx = context_of(span)
            if ctx is None:
                continue
            journey = out.get(ctx.trace_id)
            if journey is None:
                journey = Journey(trace_id=ctx.trace_id,
                                  session=ctx.get("session", "?") or "?",
                                  roots=[], tiers=[], shards=[])
                out[ctx.trace_id] = journey
            journey.roots.append((stream_id, span))
            tier = span.attrs.get("tier")
            if tier is not None:
                journey.tiers.append(str(tier))
            if stream_id not in journey.shards:
                journey.shards.append(stream_id)
        return out

    def journey(self, trace_id: str) -> Optional[Journey]:
        """One stitched journey (or ``None``)."""
        return self.journeys().get(trace_id)
