"""Fleet scaling sweep: sessions x shards under the crash sweep.

The crash-fault-tolerance plane (DESIGN.md §11) runs N gateway shards
on one batched virtual-clock scheduler and kills every shard at least
once per run.  This bench sweeps the fleet size and records what the
failover machinery does: the recovery-latency distribution (virtual
seconds from crash to each session's migration), the warm /
cold-resume / cold-full split, checkpoint traffic, and the benign
answer ledger — the scaling artifact for the sharded runtime.  Every
field is deterministic per seed; host time is ``benchmarks.e2e``'s.

``PYTHONPATH=src python benchmarks/bench_fleet_scaling.py`` writes
``BENCH_fleet_scaling.json`` at the repo root and prints it.
``PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scaling.py``
regenerates the sweep, requires it to match the committed file byte
for byte, and asserts the structural floors on it (every shard killed,
every request answered, energy reconciles, recovery latencies
populated).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.fleet import run_failover

if __name__ == "__main__":
    # Script form: import ``benchmarks`` from the repository root.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from benchmarks.committed import check_document, write_document  # noqa: E402

DOCUMENT = "BENCH_fleet_scaling.json"
GRID: List[Tuple[int, int]] = [(12, 2), (24, 4), (48, 4), (48, 8)]
REQUESTS = 4
SEED = 2003


def measure() -> Dict[str, object]:
    """The sessions-x-shards sweep, deterministic per seed."""
    sweep: Dict[str, object] = {}
    for sessions, shards in GRID:
        result = run_failover(sessions=sessions, shards=shards,
                              requests_per_session=REQUESTS, seed=SEED)
        stats = result.stats
        latencies = sorted(stats.recovery_latencies)
        sweep[f"{sessions}x{shards}"] = {
            "sessions": sessions,
            "shards": shards,
            "submitted": result.fleet.submitted,
            "answered": result.answered,
            "served": result.counts["served"],
            "shed": result.counts["shed"],
            "shed_recovering": stats.shed_recovering,
            "crashes": stats.crashes,
            "sessions_migrated": stats.sessions_migrated,
            "migrations_warm": stats.migrations_warm,
            "migrations_cold_resume": stats.migrations_cold_resume,
            "migrations_cold_full": stats.migrations_cold_full,
            "checkpoints_written": result.fleet.checkpoints_written(),
            "recovery_s": {
                "count": len(latencies),
                "p50": round(stats.recovery_p50_s(), 6),
                "p95": round(stats.recovery_p95_s(), 6),
                "max": round(latencies[-1], 6) if latencies else 0.0,
            },
            "reconciled": result.reconciliation.ok,
        }
    return {
        "_meta": {
            "grid": [list(cell) for cell in GRID],
            "requests_per_session": REQUESTS,
            "seed": SEED,
            "unit": "recovery_s = virtual crash-to-migration latency",
        },
        "sweep": sweep,
    }


def test_committed_document():
    """The committed JSON is the acceptance artifact: a fresh sweep
    reproduces it byte for byte.  At every grid point the crash sweep
    killed every shard, every benign request was answered, every
    migration has a recovery latency, and the energy reconciliation
    held exactly."""
    document = measure()
    check_document(DOCUMENT, document)
    sweep = document["sweep"]
    assert len(sweep) == len(document["_meta"]["grid"])
    for row in sweep.values():
        # Every benign request answered: served, degraded, or shed.
        assert row["answered"] == row["submitted"]
        # Every shard killed at least once.
        assert row["crashes"] >= row["shards"]
        assert row["sessions_migrated"] > 0
        assert row["recovery_s"]["count"] == row["sessions_migrated"]
        assert row["recovery_s"]["p95"] >= row["recovery_s"]["p50"] > 0.0
        assert row["reconciled"] is True
    # More sessions on the same shard count means more checkpoint
    # traffic: the journal story scales with the fleet.
    assert sweep["48x4"]["checkpoints_written"] > \
        sweep["24x4"]["checkpoints_written"]


def main() -> None:
    write_document(DOCUMENT, measure())


if __name__ == "__main__":
    main()
