"""The survivability report: what the mixed benign/attack run cost.

Turns one :class:`~repro.adversary.scenario.SurvivabilityResult` into
a plain dict (and its canonical JSON form): per-adversary-class damage
and energy ledgers, the benign served/degraded/shed breakdown with
per-reason shed energy, the DoS gate's cookie accounting, breaker
transitions, latched alerts, and the attacker-vs-user energy split —
reconciled exactly against the battery ledgers.

Every float is rounded, so :func:`repro.analysis.report.format_report`
renders it byte-stably and two same-seed runs compare with ``cmp``.
"""

from __future__ import annotations

from typing import Dict

from ..observability.attribution import adversary_energy_mj

#: The declared survivability bound: benign goodput under a 50%
#: attacker mix must stay within this much (absolute served-fraction)
#: of the attack-free baseline.  Asserted by the acceptance tests and
#: the committed ``BENCH_survivability.json`` artifact.
DECLARED_GOODPUT_BOUND = 0.1


def _round_map(values: Dict[str, float], digits: int = 6) -> Dict[str, float]:
    return {key: round(value, digits)
            for key, value in sorted(values.items())}


def build_report(result) -> Dict[str, object]:
    """The survivability report as a plain, JSON-ready dict."""
    stats = result.stats
    recon = result.reconciliation
    user_mj = sum(
        battery.drained_mj for battery in result.batteries.values())
    attacker_mj = result.population.energy_spent_mj()
    answered = result.answered
    report: Dict[str, object] = {
        "params": dict(result.params),
        "benign": {
            "counts": dict(result.counts),
            "goodput": round(result.benign_goodput, 6),
            "answered": answered,
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "served": stats.served,
            "degraded": stats.degraded,
            "shed": {
                "rate_limited": stats.shed_rate_limited,
                "queue_full": stats.shed_queue_full,
                "deadline": stats.shed_deadline,
                "malformed": stats.shed_malformed,
                "total": stats.shed,
            },
            "shed_energy_mj": _round_map(stats.shed_energy_mj),
            "malformed_discarded": stats.malformed_discarded,
            "leftover_discarded": result.leftover_discarded,
            "battery_refusals": stats.battery_refusals,
            "p95_latency_s": round(stats.p95_latency_s(), 6),
        },
        "adversaries": {
            adversary.name: dict(adversary.snapshot(),
                                 **{"class": adversary.kind})
            for adversary in result.population.adversaries
        },
        "dos_responder": result.responder.snapshot(),
        "breakers": {
            origin: [[round(at, 6), frm, to]
                     for at, frm, to in transitions]
            for origin, transitions in result.breakers.items()
        },
        "alerts": [
            {"name": alert.name, "at_s": alert.at_s,
             "detail": alert.detail}
            for alert in result.population.alerts
        ],
        "energy": {
            "user_mj": round(user_mj, 6),
            "attacker_mj": round(attacker_mj, 6),
            "per_adversary_class_mj": _round_map(
                adversary_energy_mj(result.telemetry)),
            "gateway_radio_mj": round(stats.energy_mj, 6),
            "attributed_mj": round(recon.attributed_mj, 6),
            "battery_drain_mj": round(recon.battery_drain_mj, 6),
            "reconciled": recon.ok,
        },
    }
    return report
