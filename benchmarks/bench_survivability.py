"""Survivability sweep: benign goodput vs. attacker fraction.

The adversarial traffic plane (DESIGN.md §10) interleaves four seeded
attacker classes with benign load on one virtual clock.  This bench
sweeps the attacker share of total traffic and records what survives:
benign goodput, the shed breakdown, malformed records discarded, and
the attacker-vs-user energy split — the robustness analogue of the
throughput artifact.  Every field is deterministic per seed.

``PYTHONPATH=src python benchmarks/bench_survivability.py`` writes
``BENCH_survivability.json`` at the repo root and prints it.
``PYTHONPATH=src python -m pytest benchmarks/bench_survivability.py``
regenerates the sweep, requires it to match the committed file byte
for byte, and asserts the structural floors on it (baseline serves
everything, the 50% mix holds the declared goodput bound, every
request answered, energy reconciles at every fraction).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

from repro.adversary import run_survivability
from repro.analysis.survivability import DECLARED_GOODPUT_BOUND

if __name__ == "__main__":
    # Script form: import ``benchmarks`` from the repository root.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from benchmarks.committed import check_document, write_document  # noqa: E402

DOCUMENT = "BENCH_survivability.json"
SESSIONS = 32
REQUESTS = 4
FRACTIONS = [0.0, 0.25, 0.5, 0.75]
SEED = 2003


def measure() -> Dict[str, object]:
    """The goodput-vs-attacker-fraction sweep, deterministic per seed."""
    sweep: Dict[str, object] = {}
    for fraction in FRACTIONS:
        result = run_survivability(
            sessions=SESSIONS, requests_per_session=REQUESTS,
            attacker_fraction=fraction, seed=SEED)
        stats = result.stats
        user_mj = sum(
            (battery.capacity_j - battery.remaining_j) * 1000.0
            for battery in result.batteries.values())
        sweep[f"{fraction:.2f}"] = {
            "goodput": round(result.benign_goodput, 6),
            "served": stats.served,
            "degraded": stats.degraded,
            "shed": stats.shed,
            "shed_malformed": stats.shed_malformed,
            "malformed_discarded": stats.malformed_discarded,
            "answered": stats.answered,
            "submitted": stats.submitted,
            "attacker_events": result.population.total_events(),
            "attacker_mj": round(result.population.energy_spent_mj(), 6),
            "user_mj": round(user_mj, 6),
            "alerts": len(result.population.alerts),
            "reconciled": result.reconciliation.ok,
        }
    return {
        "_meta": {
            "sessions": SESSIONS,
            "requests_per_session": REQUESTS,
            "seed": SEED,
            "attacker_fractions": FRACTIONS,
            "declared_goodput_bound": DECLARED_GOODPUT_BOUND,
            "unit": "goodput = served / answered (benign sessions)",
        },
        "sweep": sweep,
    }


def test_committed_document():
    """The committed JSON is the acceptance artifact: a fresh sweep
    reproduces it byte for byte, the full-scale sweep holds the
    declared goodput bound at the 50% mix, answers every request at
    every fraction, and reconciles energy exactly."""
    document = measure()
    check_document(DOCUMENT, document)
    assert document["_meta"]["declared_goodput_bound"] == \
        DECLARED_GOODPUT_BOUND
    sweep = document["sweep"]
    baseline, attacked = sweep["0.00"], sweep["0.50"]
    assert baseline["goodput"] == 1.0
    assert baseline["attacker_events"] == 0
    assert attacked["goodput"] >= baseline["goodput"] - DECLARED_GOODPUT_BOUND
    for row in sweep.values():
        # Every benign request answered: served, degraded, or shed.
        assert row["answered"] == row["submitted"]
        assert row["reconciled"] is True
    assert attacked["attacker_events"] > 0
    assert attacked["attacker_mj"] > 0.0
    # More attackers, more attacker energy drained: the sweep is a
    # monotone energy story even where goodput holds.
    energies = [sweep[f]["attacker_mj"] for f in sorted(sweep)]
    assert energies == sorted(energies)


def main() -> None:
    write_document(DOCUMENT, measure())


if __name__ == "__main__":
    main()
