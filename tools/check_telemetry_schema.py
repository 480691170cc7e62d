#!/usr/bin/env python
"""Validate a telemetry JSONL export against the documented schema.

The export format (see ``repro.observability.export``) is line-oriented
JSON with four record types after one header line:

* a ``trace`` header (``to_jsonl``, one trace) or a ``fleet`` header
  (``fleet_jsonl``, every shard's stream merged, with the ``streams``
  inventory), on the first line only;
* ``span`` records.  In a trace, ids are positive and strictly
  increasing and every parent resolves to an earlier span.  In a fleet
  export, every span also carries a ``stream`` the header declares,
  ids are unique and increase within each stream, and every parent
  resolves to some span of the file: the merged order can put a child
  before a parent that lives in another stream.  Always
  ``end_s >= start_s``;
* ``event`` records (trace-level events only; span events live inside
  their span's ``events`` array);
* ``metric`` records (sorted label pairs, numeric values).

The header's span and event counts must match the body.  Exit status 0
when the file conforms, 1 with a per-line diagnosis when it does not.
Used by the CI scenario jobs:

    PYTHONPATH=src python -m repro run telemetry --out out
    python tools/check_telemetry_schema.py out/telemetry.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Set

TRACE_KEYS = {
    "type", "trace_id", "label", "spans", "events", "energy_mj",
    "cycles", "unattributed_mj", "unattributed_cycles",
}
FLEET_KEYS = {
    "type", "trace_id", "label", "streams", "spans", "events",
    "energy_mj", "unattributed_mj",
}
SPAN_KEYS = {
    "type", "id", "parent", "name", "start_s", "end_s", "attrs",
    "events", "energy_mj", "cycles",
}
FLEET_SPAN_KEYS = SPAN_KEYS | {"stream"}
EVENT_KEYS = {"type", "time_s", "name", "attrs"}
METRIC_KEYS = {"type", "name", "labels", "value"}


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _streams(record: dict) -> Optional[Set[str]]:
    """A fleet header's declared stream ids, or ``None`` if malformed."""
    streams = record.get("streams")
    if isinstance(streams, list) and all(isinstance(s, str) for s in streams):
        return set(streams)
    return None


def _check_header(record: dict) -> List[str]:
    """Violations of the first line, a ``trace`` or ``fleet`` header."""
    kind = record.get("type")
    if kind not in ("trace", "fleet"):
        return ["line 1: first record must be a trace header or a fleet "
                f"header, got type={kind!r}"]
    errors: List[str] = []
    keys = TRACE_KEYS if kind == "trace" else FLEET_KEYS
    if set(record) != keys:
        errors.append(f"line 1: {kind} keys {sorted(record)} != "
                      f"{sorted(keys)}")
    if not isinstance(record.get("trace_id"), str) \
            or len(record.get("trace_id", "")) != 16:
        errors.append("line 1: trace_id must be 16 hex chars")
    if kind == "fleet" and _streams(record) is None:
        errors.append("line 1: streams must be a list of stream ids")
    return errors


def check_file(path: str) -> List[str]:
    """Return a list of schema violations (empty = conforming)."""
    errors: List[str] = []
    seen_span_ids = set()
    last_span_id: Dict[object, int] = {}
    #: ``(lineno, parent)`` of fleet spans, resolved after the last line.
    parents = []
    fleet = False
    streams = set()
    declared_spans = declared_events = None
    span_count = event_count = 0

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return ["file is empty: expected a trace header line"]

    for lineno, raw in enumerate(lines, start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: expected an object")
            continue
        kind = record.get("type")

        if lineno == 1:
            errors.extend(_check_header(record))
            fleet = kind == "fleet"
            streams = (fleet and _streams(record)) or set()
            declared_spans = record.get("spans")
            declared_events = record.get("events")
            continue

        if kind in ("trace", "fleet"):
            errors.append(f"line {lineno}: duplicate {kind} header")
        elif kind == "span":
            span_count += 1
            keys = FLEET_SPAN_KEYS if fleet else SPAN_KEYS
            if set(record) != keys:
                errors.append(f"line {lineno}: span keys "
                              f"{sorted(record)} != {sorted(keys)}")
                continue
            stream = record["stream"] if fleet else None
            if fleet and (not isinstance(stream, str) or stream not in streams):
                errors.append(f"line {lineno}: stream {stream!r} is not "
                              "declared in the fleet header")
            span_id = record["id"]
            if not isinstance(span_id, int) or span_id in seen_span_ids \
                    or span_id <= last_span_id.get(stream, 0):
                where = f" in stream {stream!r}" if fleet else ""
                errors.append(f"line {lineno}: span id {span_id!r} not "
                              f"unique and strictly increasing{where}")
            else:
                last_span_id[stream] = span_id
                seen_span_ids.add(span_id)
            parent = record["parent"]
            if fleet:
                parents.append((lineno, parent))
            elif parent is not None and parent not in seen_span_ids:
                errors.append(f"line {lineno}: parent {parent!r} does "
                              "not resolve to an earlier span")
            if not (_is_num(record["start_s"]) and _is_num(record["end_s"])
                    and record["end_s"] >= record["start_s"]):
                errors.append(f"line {lineno}: bad span interval")
            if not (_is_num(record["energy_mj"]) and _is_num(record["cycles"])):
                errors.append(f"line {lineno}: non-numeric attribution")
            if not isinstance(record["attrs"], dict) \
                    or not isinstance(record["events"], list):
                errors.append(f"line {lineno}: attrs/events malformed")
        elif kind == "event":
            event_count += 1
            if set(record) != EVENT_KEYS:
                errors.append(f"line {lineno}: event keys "
                              f"{sorted(record)} != {sorted(EVENT_KEYS)}")
        elif kind == "metric":
            if set(record) != METRIC_KEYS:
                errors.append(f"line {lineno}: metric keys "
                              f"{sorted(record)} != {sorted(METRIC_KEYS)}")
            elif not _is_num(record["value"]):
                errors.append(f"line {lineno}: metric value must be numeric")
            elif not isinstance(record["labels"], dict):
                errors.append(f"line {lineno}: metric labels must be an "
                              "object")
        else:
            errors.append(f"line {lineno}: unknown record type {kind!r}")

    for lineno, parent in parents:
        if parent is not None and parent not in seen_span_ids:
            errors.append(f"line {lineno}: parent {parent!r} does not "
                          "resolve to any span of the file")
    header = "fleet" if fleet else "trace"
    if declared_spans is not None and declared_spans != span_count:
        errors.append(f"{header} header declares {declared_spans} spans but "
                      f"{span_count} span records follow")
    if declared_events is not None and declared_events != event_count:
        errors.append(f"{header} header declares {declared_events} trace "
                      f"events but {event_count} event records follow")
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} TRACE.jsonl", file=sys.stderr)
        return 2
    errors = check_file(argv[1])
    if errors:
        for error in errors:
            print(f"{argv[1]}: {error}", file=sys.stderr)
        return 1
    print(f"{argv[1]}: schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
