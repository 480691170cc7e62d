"""Compare a base commit's runs with a change's runs.

Both inputs are files of full reports as ``--out`` writes them, one
JSON object per line.  Run the two commits in alternating pairs (base
first, then change first, and so on) with the same seconds and seeds;
the i-th untraced report of a workload in one file is paired with the
i-th in the other.

Per workload and end-to-end metric the verdict is:

``improved``
    at least ten pairs, the change wins at least nine tenths of them
    (ties count for neither side), and its median is better than the
    base median by more than the base's interquartile range;
``unresolved``
    otherwise, when either side's interquartile range exceeds the
    metric's bound (as a share of its median), unless every change run
    reads better than every base run;
``regressed``
    the change's median is worse than the base's by more than the bound;
``within bound``
    anything else.

No gain counts when the change failed more requests than the base.
Runs the calibration loop flagged unstable are counted in each row,
never dropped.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from . import spec
from .cli import quartiles


def _load(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            report = json.loads(line)
            if not report["trace"] and report["correct"]:
                runs.setdefault(report["workload"], []).append(report)
    return runs


def verdict(base: List[float], change: List[float], better: str,
            bound: float, fewer_failures: bool = True) -> dict:
    """Apply the comparison rules to paired per-run values (the i-th
    base run is paired with the i-th change run)."""
    pairs = len(base)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_q1, base_q3 = quartiles(base)
    change_q1, change_q3 = quartiles(change)
    gain = sign * (change_median - base_median)
    spread = max((base_q3 - base_q1) / abs(base_median),
                 (change_q3 - change_q1) / abs(change_median))
    all_better = (min(sign * c for c in change) > max(sign * b for b in base))
    if (pairs >= 10 and wins >= 0.9 * pairs and gain > base_q3 - base_q1
            and fewer_failures):
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif -gain > bound * abs(base_median):
        outcome = "regressed"
    else:
        outcome = "within bound"
    return {
        "verdict": outcome, "pairs": pairs, "wins": wins, "losses": losses,
        "base": {"median": base_median, "q1": base_q1, "q3": base_q3},
        "change": {"median": change_median, "q1": change_q1, "q3": change_q3},
        "ratio": change_median / base_median,
    }


def _pairing(base: List[dict], change: List[dict]) -> bool:
    """Whether the runs were made in alternating pairs: every pair ends
    before the next begins, and the side that goes first alternates."""
    pairs = list(zip(base, change))
    first = [b["started_at"] < c["started_at"] for b, c in pairs]
    ordered = all(
        max(b["started_at"], c["started_at"])
        < min(nb["started_at"], nc["started_at"])
        for (b, c), (nb, nc) in zip(pairs, pairs[1:]))
    alternates = all(x != y for x, y in zip(first, first[1:]))
    return ordered and alternates


def compare(base_runs: Dict[str, List[dict]],
            change_runs: Dict[str, List[dict]]) -> Dict[str, dict]:
    """Verdicts per workload and metric for two sets of reports."""
    rows = {}
    for workload in spec.WORKLOADS:
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not base or not change:
            continue
        pairs = min(len(base), len(change))
        base, change = base[:pairs], change[:pairs]
        fewer_failures = (sum(r["failed"] for r in change)
                          <= sum(r["failed"] for r in base))
        rows[workload] = {
            "alternating_pairs": _pairing(base, change),
            "failed": {"base": sum(r["failed"] for r in base),
                       "change": sum(r["failed"] for r in change)},
            "unstable": {"base": sum(r["unstable"] for r in base),
                         "change": sum(r["unstable"] for r in change)},
            "metrics": {
                name: dict(verdict(
                    [r["metrics"][name]["value"] for r in base],
                    [r["metrics"][name]["value"] for r in change],
                    better, bound, fewer_failures), unit=unit)
                for name, unit, better, bound in spec.END_TO_END},
        }
    return rows


def _row(workload: str, row: dict) -> str:
    cells = []
    for name, result in row["metrics"].items():
        base = result["base"]["median"]
        cells.append(
            f"{name} {result['verdict']} (change/base {result['ratio']:.3f} "
            f"of base {base:.4g} {result['unit']}, wins "
            f"{result['wins']}/{result['pairs']})")
    pairing = "" if row["alternating_pairs"] else " [runs not in alternating pairs]"
    unstable = row["unstable"]
    return (f"{workload}{pairing} [unstable runs: base {unstable['base']}, "
            f"change {unstable['change']}]: " + "; ".join(cells))


def main(base_path: str, change_path: str) -> int:
    rows = compare(_load(base_path), _load(change_path))
    if not rows:
        print("no workload has correct untraced runs in both files",
              file=sys.stderr)
        return 2
    for workload, row in rows.items():
        print(_row(workload, row))
    print(json.dumps(rows))
    return 0
