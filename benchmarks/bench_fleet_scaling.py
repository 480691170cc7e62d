"""Fleet scaling sweep: sessions x shards under the crash sweep.

The crash-fault-tolerance plane (DESIGN.md §11) runs N gateway shards
on one batched virtual-clock scheduler and kills every shard at least
once per run.  This bench sweeps the fleet size and records what the
failover machinery costs: wall-clock per run, peak RSS, the recovery-
latency distribution (virtual seconds from crash to each session's
migration), the warm / cold-resume / cold-full split, and the benign
answer ledger — the scaling artifact for the sharded runtime.

Wall-clock and RSS are environment-dependent and recorded for trend
reading only; every other field is deterministic per seed, and the
structural assertions below pin those.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_fleet_scaling.py`` — full
  sweep; writes ``BENCH_fleet_scaling.json`` next to the repo root and
  prints it;
* ``PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scaling.py``
  — smoke mode: smaller grid, asserts the structural floors (every
  shard killed, every request answered, energy reconciles, recovery
  latencies populated).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

from repro.fleet import run_failover

GRID: List[Tuple[int, int]] = [(12, 2), (24, 4), (48, 4), (48, 8)]
REQUESTS = 4
SEED = 2003


def _peak_rss_kb() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes on Linux.
    return peak // 1024 if sys.platform == "darwin" else peak


def measure(grid: List[Tuple[int, int]] = GRID, requests: int = REQUESTS,
            seed: int = SEED) -> Dict[str, object]:
    """The sessions-x-shards sweep; deterministic per seed except the
    wall-clock / RSS observations."""
    sweep: Dict[str, object] = {}
    for sessions, shards in grid:
        start = time.perf_counter()
        result = run_failover(sessions=sessions, shards=shards,
                              requests_per_session=requests, seed=seed)
        elapsed = time.perf_counter() - start
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
            "wall_s": round(elapsed, 4),
            "peak_rss_kb": _peak_rss_kb(),
        }
    return {
        "_meta": {
            "grid": [list(cell) for cell in grid],
            "requests_per_session": requests,
            "seed": seed,
            "unit": ("recovery_s = virtual crash-to-migration latency; "
                     "wall_s / peak_rss_kb are host-dependent"),
        },
        "sweep": sweep,
    }


# -- smoke-mode assertions (pytest entry point) -----------------------------


def test_fleet_scaling_smoke():
    results = measure(grid=[(8, 2), (12, 3)], requests=3)
    for row in results["sweep"].values():
        # Every benign request answered: served, degraded, or shed.
        assert row["answered"] == row["submitted"]
        # Every shard killed at least once.
        assert row["crashes"] >= row["shards"]
        assert row["sessions_migrated"] > 0
        assert row["recovery_s"]["count"] == row["sessions_migrated"]
        assert row["recovery_s"]["p95"] >= row["recovery_s"]["p50"] > 0.0
        assert row["reconciled"]


#: The host-dependent fields; everything else is deterministic per seed.
HOST_FIELDS = ("wall_s", "peak_rss_kb")


def _deterministic(node):
    """``node`` with every host-dependent field dropped."""
    if isinstance(node, dict):
        return {key: _deterministic(value) for key, value in node.items()
                if key not in HOST_FIELDS}
    return node


def test_committed_bench_document():
    """The committed JSON is the acceptance artifact and cannot go
    stale: a fresh sweep reproduces every field of it except the
    host-dependent ones.  At every grid point the crash sweep killed
    every shard, every benign request was answered, and the energy
    reconciliation held exactly."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_fleet_scaling.json")
    with open(path, encoding="ascii") as handle:
        document = json.load(handle)
    meta = document["_meta"]
    fresh = measure(grid=[tuple(cell) for cell in meta["grid"]],
                    requests=meta["requests_per_session"], seed=meta["seed"])
    assert _deterministic(fresh) == _deterministic(document)
    sweep = document["sweep"]
    assert len(sweep) == len(document["_meta"]["grid"])
    for row in sweep.values():
        assert row["answered"] == row["submitted"]
        assert row["crashes"] >= row["shards"]
        assert row["sessions_migrated"] > 0
        assert row["reconciled"] is True
    # More sessions on the same shard count means more checkpoint
    # traffic: the journal story scales with the fleet.
    assert sweep["48x4"]["checkpoints_written"] > \
        sweep["24x4"]["checkpoints_written"]


def main() -> None:
    results = measure()
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_fleet_scaling.json")
    document = json.dumps(results, indent=2, sort_keys=True)
    with open(out, "w", encoding="ascii") as handle:
        handle.write(document + "\n")
    print(document)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
