"""Deterministic exports: JSONL event log, Prometheus text, flamegraph.

Every export here is **byte-identical across same-seed reruns**: spans
carry sequential ids and virtual timestamps, JSON is serialised with
sorted keys and fixed separators, and metric families render in sorted
order.  The CI smoke job leans on this by diffing two same-seed runs
with ``cmp``.

JSONL schema (one object per line):

* ``{"type": "trace", "trace_id", "label", "spans", "events",
  "energy_mj", "cycles", "unattributed_mj", "unattributed_cycles"}``
  — exactly one, first line;
* ``{"type": "span", "id", "parent", "name", "start_s", "end_s",
  "attrs", "events", "energy_mj", "cycles"}`` — one per span, in
  creation (= id) order;
* ``{"type": "event", "name", "time_s", "attrs"}`` — trace-level
  events (span-level events ride inside their span line);
* ``{"type": "metric", "name", "labels", "value"}`` — one per series
  of the final scrape.

``tools/check_telemetry_schema.py`` validates this shape.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from .attribution import span_rollup
from .spans import Span, SpanEvent, Telemetry


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _event_dict(event: SpanEvent) -> Dict[str, object]:
    return {"name": event.name, "time_s": event.time_s,
            "attrs": {str(k): _scalar(v) for k, v in event.attrs.items()}}


def _scalar(value):
    """Coerce attribute values to JSON-stable scalars."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _span_line(span: Span, **extra) -> str:
    """One ``type: "span"`` line (``extra`` adds fleet-only keys)."""
    return _dumps({
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "attrs": {str(k): _scalar(v) for k, v in span.attrs.items()},
        "events": [_event_dict(e) for e in span.events],
        "energy_mj": span.energy_mj,
        "cycles": span.cycles,
        **extra,
    })


def _tail_lines(telemetry: Telemetry) -> List[str]:
    """Trace-level event lines, then the final metrics scrape."""
    lines: List[str] = []
    for event in telemetry.events:
        payload = _event_dict(event)
        payload["type"] = "event"
        lines.append(_dumps(payload))
    for name, key, value in telemetry.registry.samples():
        lines.append(_dumps({
            "type": "metric",
            "name": name,
            "labels": {k: v for k, v in key},
            "value": value,
        }))
    return lines


def to_jsonl(telemetry: Telemetry) -> str:
    """The whole trace + final metrics scrape as deterministic JSONL."""
    lines: List[str] = [_dumps({
        "type": "trace",
        "trace_id": telemetry.trace_id,
        "label": telemetry.label,
        "spans": len(telemetry.spans),
        "events": len(telemetry.events),
        "energy_mj": telemetry.total_energy_mj(),
        "cycles": telemetry.total_cycles(),
        "unattributed_mj": telemetry.unattributed_mj,
        "unattributed_cycles": telemetry.unattributed_cycles,
    })]
    lines.extend(_span_line(span) for span in telemetry.spans)
    lines.extend(_tail_lines(telemetry))
    return "\n".join(lines) + "\n"


def fleet_jsonl(telemetry: Telemetry, store) -> str:
    """Fleet-scope JSONL: spans in the merged per-shard-stream order.

    Same line schema as :func:`to_jsonl` except the header line is
    ``type: "fleet"`` (stream inventory included) and every span line
    carries its owning ``stream`` — spans appear in the
    :meth:`~repro.observability.tracecontext.FleetTraceStore.merged`
    ``(start_s, stream, span_id)`` order rather than creation order,
    so the log reads as one interleaved fleet timeline.
    """
    merged = store.merged()
    lines: List[str] = [_dumps({
        "type": "fleet",
        "trace_id": telemetry.trace_id,
        "label": telemetry.label,
        "streams": store.streams(),
        "spans": len(merged),
        "events": len(telemetry.events),
        "energy_mj": telemetry.total_energy_mj(),
        "unattributed_mj": telemetry.unattributed_mj,
    })]
    lines.extend(_span_line(span, stream=stream)
                 for _start, stream, _span_id, span in merged)
    lines.extend(_tail_lines(telemetry))
    return "\n".join(lines) + "\n"


def prometheus_text(telemetry: Telemetry) -> str:
    """The final metrics scrape in Prometheus exposition format."""
    return telemetry.registry.render()


# ---------------------------------------------------------------------------
# Human-facing renderings for the CLI
# ---------------------------------------------------------------------------

def span_tree(telemetry: Telemetry, max_spans: int = 200) -> str:
    """An indented tree of the trace (truncated for huge runs)."""
    children: Dict[object, List[Span]] = {}
    for span in telemetry.spans:
        children.setdefault(span.parent_id, []).append(span)

    lines: List[str] = [f"trace {telemetry.trace_id} ({telemetry.label})"]
    emitted = 0

    def walk(parent_id, depth: int) -> None:
        nonlocal emitted
        for span in children.get(parent_id, ()):
            if emitted >= max_spans:
                return
            emitted += 1
            attrs = "".join(
                f" {k}={_scalar(v)}" for k, v in sorted(span.attrs.items()))
            cost = ""
            if span.energy_mj:
                cost += f" {span.energy_mj:.3f}mJ"
            if span.cycles:
                cost += f" {span.cycles / 1e6:.2f}Mi"
            lines.append(
                f"{'  ' * (depth + 1)}{span.name}"
                f" [{span.start_s:.3f}s..{(span.end_s or span.start_s):.3f}s]"
                f"{attrs}{cost}")
            walk(span.span_id, depth + 1)

    walk(None, 0)
    if emitted < len(telemetry.spans):
        lines.append(f"  ... {len(telemetry.spans) - emitted} more spans")
    return "\n".join(lines)


def _folds(telemetry: Telemetry,
           root_of: Optional[Callable[[Span], str]] = None) -> str:
    """Folded stacks weighted by inclusive mJ (micro-joule resolution),
    each stack prefixed with ``root_of(span)`` when given."""
    by_id = {span.span_id: span for span in telemetry.spans}
    weights: Dict[str, float] = {}
    for span in telemetry.spans:
        frames = [span.name]
        node = span
        while node.parent_id is not None:
            node = by_id[node.parent_id]
            frames.append(node.name)
        if root_of is not None:
            frames.append(root_of(span))
        stack = ";".join(reversed(frames))
        weights[stack] = weights.get(stack, 0.0) + span.energy_mj
    lines = [f"{stack} {int(round(weights[stack] * 1000.0))}"
             for stack in sorted(weights) if weights[stack] > 0.0]
    return "\n".join(lines) + ("\n" if lines else "")


def flamegraph_folds(telemetry: Telemetry) -> str:
    """Brendan-Gregg-style folded stacks weighted by inclusive mJ
    (micro-joule resolution), suitable for any flamegraph renderer."""
    return _folds(telemetry)


def fleet_flamegraph_folds(telemetry: Telemetry, store) -> str:
    """Folded stacks rooted at the owning shard stream.

    Same weighting as :func:`flamegraph_folds`, but every stack is
    prefixed with the stream the span belongs to in the fleet trace
    store — the flamegraph reads per-shard first, then per-path, so
    recovery energy shows up under the shard that paid for it.
    """
    stream_of = {span_id: stream
                 for _start, stream, span_id, _span in store.merged()}
    return _folds(telemetry,
                  lambda span: stream_of.get(span.span_id, "fleet"))


def rollup_table(telemetry: Telemetry) -> str:
    """The telemetry report's summary: per-span-name cost table."""
    rows = span_rollup(telemetry)
    header = (f"{'span':<24} {'count':>6} {'self mJ':>12} "
              f"{'incl mJ':>12} {'incl Mi':>12} {'dur s':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<24} {row.count:>6} {row.self_mj:>12.3f} "
            f"{row.inclusive_mj:>12.3f} {row.inclusive_cycles / 1e6:>12.2f} "
            f"{row.duration_s:>10.3f}")
    lines.append(
        f"{'(unattributed)':<24} {'':>6} "
        f"{telemetry.unattributed_mj:>12.3f} {'':>12} "
        f"{telemetry.unattributed_cycles / 1e6:>12.2f} {'':>10}")
    return "\n".join(lines)
