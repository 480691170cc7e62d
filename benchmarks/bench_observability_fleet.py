"""Fleet observability overhead: dark probes vs tracing vs watchtower.

The fleet observability plane (DESIGN.md §12) promises a zero-cost
seam: with the probe dark a failover run pays a single ``if`` per
probe point, with it lit every span/event/counter lands in one
telemetry stream, and with the full watchtower riding along a
recurring sampler adds windowed series and SLO evaluation on top.
This bench sweeps sessions x shards and measures all three layers on
the *same* seeded chaos run:

* ``off`` — ``run_failover(..., probe_enabled=False)``: the dark
  baseline, zero spans;
* ``traced`` — ``run_failover(...)``: full span/trace-context capture;
* ``watched`` — ``run_fleetwatch(...)``: tracing plus the windowed
  time-series sampler and burn-rate SLO engine.

Wall-clock and RSS are environment-dependent and recorded for trend
reading only; every other field is deterministic per seed, and the
structural assertions below pin those — including that all three
layers answer the identical ledger (observability never changes the
run).

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_observability_fleet.py`` —
  full sweep; writes ``BENCH_observability_fleet.json`` next to the
  repo root and prints it;
* ``PYTHONPATH=src python -m pytest
  benchmarks/bench_observability_fleet.py`` — smoke mode: smaller
  grid, asserts the structural floors (dark layer records nothing,
  the watched layer's ledger matches the dark layer's, windows and
  alerts populated, energy reconciles).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

from repro.fleet import run_failover
from repro.observability.fleetwatch import run_fleetwatch

GRID: List[Tuple[int, int]] = [
    (8, 1), (8, 4), (8, 8),
    (16, 1), (16, 4), (16, 8),
    (32, 1), (32, 4), (32, 8),
]
REQUESTS = 3
SEED = 2003


def _peak_rss_kb() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes on Linux.
    return peak // 1024 if sys.platform == "darwin" else peak


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure(grid: List[Tuple[int, int]] = GRID, requests: int = REQUESTS,
            seed: int = SEED) -> Dict[str, object]:
    """The three-layer sweep; deterministic per seed except the
    wall-clock / RSS observations."""
    sweep: Dict[str, object] = {}
    for sessions, shards in grid:
        kwargs = dict(sessions=sessions, shards=shards,
                      requests_per_session=requests, seed=seed)

        dark, dark_s = _timed(lambda: run_failover(
            probe_enabled=False, **kwargs))
        traced, traced_s = _timed(lambda: run_failover(**kwargs))
        watched, watched_s = _timed(lambda: run_fleetwatch(**kwargs))

        ledger = dict(dark.counts)
        summary = watched.watch.engine.summary()
        sweep[f"{sessions}x{shards}"] = {
            "sessions": sessions,
            "shards": shards,
            "answered": dark.answered,
            "counts": ledger,
            "crashes": dark.stats.crashes,
            "layers": {
                "off": {
                    "spans": len(dark.telemetry.spans),
                    "wall_s": round(dark_s, 4),
                },
                "traced": {
                    "spans": len(traced.telemetry.spans),
                    "events": len(traced.telemetry.events),
                    "wall_s": round(traced_s, 4),
                },
                "watched": {
                    "spans": len(watched.telemetry.spans),
                    "windows": len(watched.watch.fleet_windows()),
                    "samples": watched.watch.samples_taken,
                    "alerts": len(summary["alerts"]),
                    "streams": len(watched.store.streams()),
                    "wall_s": round(watched_s, 4),
                },
            },
            "ledger_invariant": (
                dict(traced.counts) == ledger
                and dict(watched.counts) == ledger),
            # The dark layer attributes no energy (no spans), so the
            # reconciliation invariant is a lit-layer property.
            "reconciled": (traced.reconciliation.ok
                           and watched.reconciliation.ok),
            "peak_rss_kb": _peak_rss_kb(),
        }
    return {
        "_meta": {
            "grid": [list(cell) for cell in grid],
            "requests_per_session": requests,
            "seed": seed,
            "layers": ("off = probe_enabled=False; traced = spans on; "
                       "watched = tracing + windowed series + SLO engine"),
            "unit": ("wall_s / peak_rss_kb are host-dependent; every "
                     "other field is deterministic per seed"),
        },
        "sweep": sweep,
    }


# -- smoke-mode assertions (pytest entry point) -----------------------------


def test_observability_layers_smoke():
    results = measure(grid=[(8, 1), (10, 2)], requests=3)
    for row in results["sweep"].values():
        layers = row["layers"]
        # The dark layer records nothing; the lit layers record plenty.
        assert layers["off"]["spans"] == 0
        assert layers["traced"]["spans"] > 0
        # The watcher only *adds* spans on top of the traced run.
        assert layers["watched"]["spans"] >= layers["traced"]["spans"]
        assert layers["watched"]["windows"] > 0
        assert layers["watched"]["samples"] > 0
        # Observability never changes the run.
        assert row["ledger_invariant"]
        assert row["reconciled"]


def test_committed_bench_document():
    """The committed JSON is the acceptance artifact: at every grid
    point the dark layer recorded zero spans, all three layers
    answered the identical ledger, the watcher produced windows and
    alerts, and the energy reconciliation held on every layer."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_observability_fleet.json")
    with open(path, encoding="ascii") as handle:
        document = json.load(handle)
    sweep = document["sweep"]
    assert len(sweep) == len(document["_meta"]["grid"])
    for row in sweep.values():
        layers = row["layers"]
        assert layers["off"]["spans"] == 0
        assert layers["traced"]["spans"] > 0
        assert layers["watched"]["spans"] >= layers["traced"]["spans"]
        assert layers["watched"]["windows"] > 0
        assert layers["watched"]["streams"] == row["shards"] + 1
        assert row["ledger_invariant"] is True
        assert row["reconciled"] is True
    # More sessions means more spans: the trace volume scales with
    # offered load, not with the watcher.
    assert sweep["32x4"]["layers"]["traced"]["spans"] > \
        sweep["8x4"]["layers"]["traced"]["spans"]


def main() -> None:
    results = measure()
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_observability_fleet.json")
    document = json.dumps(results, indent=2, sort_keys=True)
    with open(out, "w", encoding="ascii") as handle:
        handle.write(document + "\n")
    print(document)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
