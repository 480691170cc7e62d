"""M-commerce transaction economics: mJ/transaction by suite and
battery class.

The workload plane (DESIGN.md §13) drives browse/authenticate/purchase
sessions over the sharded fleet with the lightweight stream family
negotiated per battery class.  This bench records what §2's motivating
transaction actually costs: virtual transactions per second, airlink
bytes, and millijoules per transaction broken out by negotiated suite
and by handset battery class — the measured form of the paper's
"without exhausting the battery" requirement.  Every field is
deterministic per seed.

``PYTHONPATH=src python benchmarks/bench_mcommerce.py`` writes
``BENCH_mcommerce.json`` at the repo root and prints it.
``PYTHONPATH=src python -m pytest benchmarks/bench_mcommerce.py``
regenerates the run, requires it to match the committed file byte for
byte, and asserts the structural floors on it (every request answered,
energy reconciled, Trivium cheaper per compute-byte than AES-CBC,
dual-signature bindings all holding, every battery class and the whole
lightweight family represented).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

from repro.analysis.mcommerce import build_report
from repro.workloads import run_mcommerce

if __name__ == "__main__":
    # Script form: import ``benchmarks`` from the repository root.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from benchmarks.committed import check_document, write_document  # noqa: E402

DOCUMENT = "BENCH_mcommerce.json"
SESSIONS = 27
SHARDS = 3
DURATION_S = 1.2
SEED = 2003


def measure() -> Dict[str, object]:
    """One full workload run, folded to the bench document shape."""
    result = run_mcommerce(sessions=SESSIONS, shards=SHARDS, seed=SEED,
                           duration_s=DURATION_S)
    report = build_report(result)
    by_suite = {}
    for name, row in report["by_suite"].items():
        by_suite[name] = {
            "sessions": row["sessions"],
            "transactions": row["transactions"],
            "wire_bytes": row["wire_bytes"],
            "compute_mj": row["compute_mj"],
            "mj_per_transaction": row["mj_per_transaction"],
        }
    return {
        "_meta": {
            "sessions": SESSIONS,
            "shards": SHARDS,
            "duration_s": DURATION_S,
            "seed": SEED,
            "unit": "mJ per answered transaction, virtual clock",
        },
        "traffic": {
            "transactions": report["traffic"]["transactions"],
            "transactions_per_s": report["traffic"]["transactions_per_s"],
            "answer_rate": report["traffic"]["answer_rate"],
            "session_mix": report["traffic"]["session_mix"],
        },
        "by_suite": by_suite,
        "by_battery_class": report["by_battery_class"],
        "payments": {
            "purchases": report["payments"]["purchases"],
            "bindings_hold": report["payments"]["bindings_hold"],
        },
        "energy": report["energy"],
    }


def _compute_per_byte(row: Dict[str, object]) -> float:
    return row["compute_mj"] / row["wire_bytes"] if row["wire_bytes"] else 0.0


def test_committed_document():
    """The committed JSON is the acceptance artifact: a fresh run
    reproduces it byte for byte at full scale, everything answered,
    energy reconciled, every battery class and the whole lightweight
    family represented."""
    document = measure()
    check_document(DOCUMENT, document)
    assert document["traffic"]["answer_rate"] == 1.0
    assert document["energy"]["reconciled"] is True
    assert document["payments"]["bindings_hold"] is True
    assert {"coin", "standard", "extended"} == \
        set(document["by_battery_class"])
    by_suite = document["by_suite"]
    assert {"RSA_WITH_A51_228_SHA", "RSA_WITH_GRAIN_V1_SHA",
            "RSA_WITH_TRIVIUM_SHA"} <= set(by_suite)
    for row in by_suite.values():
        assert row["transactions"] > 0
        assert row["mj_per_transaction"] > 0.0
    # The §3 batching story holds end to end: Trivium's 64-step batch
    # beats AES-CBC per compute-byte through the whole stack.
    trivium = by_suite["RSA_WITH_TRIVIUM_SHA"]
    aes = by_suite["RSA_WITH_AES_128_CBC_SHA"]
    assert _compute_per_byte(trivium) < _compute_per_byte(aes)


def main() -> None:
    write_document(DOCUMENT, measure())


if __name__ == "__main__":
    main()
