"""The fleetwatch ops report: one watched chaos run, rendered.

Turns one :class:`~repro.observability.fleetwatch.FleetwatchResult`
into a plain dict (and its canonical JSON form) with four sections on
top of the embedded failover report:

* ``traces`` — the stitched cross-shard journeys: for every session
  that was ever migrated, its trace id, the shard streams it crossed,
  the recovery tiers it took, and the crash milestones it witnessed;
  plus the stream inventory of the merged fleet trace;
* ``windows`` — the fleet-wide per-window table (goodput, shed mix,
  recovery-tier counts, serve-vs-recovery energy split, latency and
  recovery-latency percentiles) and per-shard window tables with
  merged whole-run percentiles;
* ``slo`` — per-spec attainment and burn statistics, the policy set,
  and the latched alert ledger (every firing and clear the run ever
  raised, in order);
* the ``failover`` section is the unmodified byte-stable failover
  report — watching a run must not change what the run did.

Every float is rounded, so :func:`repro.analysis.report.format_report`
renders it byte-stably — the CI ``cmp`` gate for deterministic fleet
observability.
"""

from __future__ import annotations

from typing import Dict

from ..observability.fleetwatch import SAMPLE_INTERVAL_S, SLIDE_S, WINDOW_S
from ..observability.tracecontext import CTX_TRACE
from .failover import build_report as build_failover_report


def _journey_rows(result) -> Dict[str, object]:
    """JSON-ready journey section, keyed by session id."""
    store = result.store
    telemetry = result.telemetry
    crash_milestones: Dict[str, int] = {}
    for event in telemetry.events:
        trace_id = event.attrs.get(CTX_TRACE)
        if trace_id is not None and event.name == "fleet.session_orphaned":
            crash_milestones[str(trace_id)] = (
                crash_milestones.get(str(trace_id), 0) + 1)
    rows: Dict[str, object] = {}
    for trace_id, journey in sorted(store.journeys().items()):
        rows[journey.session] = {
            "trace_id": trace_id,
            "shards": list(journey.shards),
            "tiers": list(journey.tiers),
            "spans": journey.span_count,
            "crash_milestones": crash_milestones.get(trace_id, 0),
            "stitched": journey.span_count >= 1 + len(journey.tiers),
        }
    return rows


def build_report(result) -> Dict[str, object]:
    """The fleetwatch report as a plain, JSON-ready dict."""
    watch = result.watch
    store = result.store
    journeys = _journey_rows(result)
    tiers_seen = sorted({tier for row in journeys.values()
                         for tier in row["tiers"]})
    merged = store.merged()
    spans_per_stream: Dict[str, int] = {}
    for _start, stream, _span_id, _span in merged:
        spans_per_stream[stream] = spans_per_stream.get(stream, 0) + 1
    report: Dict[str, object] = {
        "params": {
            **dict(result.params),
            "window_s": WINDOW_S,
            "slide_s": SLIDE_S,
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "samples_taken": watch.samples_taken,
        },
        "failover": build_failover_report(result),
        "traces": {
            "streams": store.streams(),
            "spans_total": len(merged),
            "spans_per_stream": {key: spans_per_stream[key]
                                 for key in sorted(spans_per_stream)},
            "journeys": journeys,
            "tiers_seen": tiers_seen,
            "migrated_sessions": sum(
                1 for row in journeys.values() if row["tiers"]),
        },
        "windows": {
            "width_s": WINDOW_S,
            "slide_s": SLIDE_S,
            "fleet": watch.fleet_windows(),
            "shards": watch.shard_windows(),
            "overall_latency": watch.overall_latency(),
        },
        "slo": watch.engine.summary(),
    }
    return report
