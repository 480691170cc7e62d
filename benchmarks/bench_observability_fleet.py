"""Observability never changes the run: dark probes vs tracing vs
watchtower on the same seeded chaos run.

The fleet observability plane (DESIGN.md §12) promises a seam that
only watches: with the probe dark a failover run records nothing, with
it lit every span/event/counter lands in one telemetry stream, and
with the full watchtower riding along a recurring sampler adds
windowed series and SLO evaluation on top.  This bench sweeps
sessions x shards and runs all three layers on the *same* seeded chaos
run:

* ``off`` — ``run_failover(..., probe_enabled=False)``: the dark
  baseline, zero spans;
* ``traced`` — ``run_failover(...)``: full span/trace-context capture;
* ``watched`` — ``run_fleetwatch(...)``: tracing plus the windowed
  time-series sampler and burn-rate SLO engine.

It records what each layer captured and whether all three answered the
identical ledger.  Every field is deterministic per seed.  What the lit
probe costs in host time is measured by
``tests/observability/test_overhead.py`` and
``benchmarks/bench_telemetry_overhead.py``.

``PYTHONPATH=src python benchmarks/bench_observability_fleet.py``
writes ``BENCH_observability_fleet.json`` at the repo root and prints
it.  ``PYTHONPATH=src python -m pytest
benchmarks/bench_observability_fleet.py`` regenerates the sweep,
requires it to match the committed file byte for byte, and asserts the
structural floors on it (dark layer records nothing, every layer
answers the dark layer's ledger, windows and samples populated, energy
reconciles).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.fleet import run_failover
from repro.observability.fleetwatch import run_fleetwatch

if __name__ == "__main__":
    # Script form: import ``benchmarks`` from the repository root.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from benchmarks.committed import check_document, write_document  # noqa: E402

DOCUMENT = "BENCH_observability_fleet.json"
GRID: List[Tuple[int, int]] = [
    (8, 1), (8, 4), (8, 8),
    (16, 1), (16, 4), (16, 8),
    (32, 1), (32, 4), (32, 8),
]
REQUESTS = 3
SEED = 2003


def measure() -> Dict[str, object]:
    """The three-layer sweep, deterministic per seed."""
    sweep: Dict[str, object] = {}
    for sessions, shards in GRID:
        kwargs = dict(sessions=sessions, shards=shards,
                      requests_per_session=REQUESTS, seed=SEED)
        dark = run_failover(probe_enabled=False, **kwargs)
        traced = run_failover(**kwargs)
        watched = run_fleetwatch(**kwargs)

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
                },
                "traced": {
                    "spans": len(traced.telemetry.spans),
                    "events": len(traced.telemetry.events),
                },
                "watched": {
                    "spans": len(watched.telemetry.spans),
                    "windows": len(watched.watch.fleet_windows()),
                    "samples": watched.watch.samples_taken,
                    "alerts": len(summary["alerts"]),
                    "streams": len(watched.store.streams()),
                },
            },
            "ledger_invariant": (
                dict(traced.counts) == ledger
                and dict(watched.counts) == ledger),
            # The dark layer attributes no energy (no spans), so the
            # reconciliation invariant is a lit-layer property.
            "reconciled": (traced.reconciliation.ok
                           and watched.reconciliation.ok),
        }
    return {
        "_meta": {
            "grid": [list(cell) for cell in GRID],
            "requests_per_session": REQUESTS,
            "seed": SEED,
            "layers": ("off = probe_enabled=False; traced = spans on; "
                       "watched = tracing + windowed series + SLO engine"),
        },
        "sweep": sweep,
    }


def test_committed_document():
    """The committed JSON is the acceptance artifact: a fresh sweep
    reproduces it byte for byte.  At every grid point the dark layer
    recorded zero spans, all three layers answered the identical
    ledger, the watcher produced windows and samples, and the energy
    reconciliation held on every lit layer."""
    document = measure()
    check_document(DOCUMENT, document)
    sweep = document["sweep"]
    assert len(sweep) == len(document["_meta"]["grid"])
    for row in sweep.values():
        layers = row["layers"]
        # The dark layer records nothing; the lit layers record plenty.
        assert layers["off"]["spans"] == 0
        assert layers["traced"]["spans"] > 0
        # The watcher only *adds* spans on top of the traced run.
        assert layers["watched"]["spans"] >= layers["traced"]["spans"]
        assert layers["watched"]["windows"] > 0
        assert layers["watched"]["samples"] > 0
        assert layers["watched"]["streams"] == row["shards"] + 1
        # Observability never changes the run.
        assert row["ledger_invariant"] is True
        assert row["reconciled"] is True
    # More sessions means more spans: the trace volume scales with
    # offered load, not with the watcher.
    assert sweep["32x4"]["layers"]["traced"]["spans"] > \
        sweep["8x4"]["layers"]["traced"]["spans"]


def main() -> None:
    write_document(DOCUMENT, measure())


if __name__ == "__main__":
    main()
