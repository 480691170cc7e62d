"""The canonical failover scenario: a seeded multi-shard chaos run.

One call builds a whole fleet with telemetry active, spreads handset
sessions across the shards, drives a steady request load, and kills
**every shard at least once** while the load is running.  What comes
back is the acceptance ledger for the crash-fault-tolerance plane:

* every benign request answered — served, degraded, or shed with a
  structured reason (``recovering`` during failover windows);
* every recovery action (checkpoint restores, resumption and
  re-handshake traffic, recovering sheds) charged to handset
  batteries, with the end-to-end energy reconciliation holding
  exactly;
* byte-identical behaviour on same-seed reruns (the CI ``cmp`` gate
  via :mod:`repro.analysis.failover`).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Tuple

from ..hardware.battery import Battery
from ..observability import probe
from ..observability.attribution import reconcile_energy
from ..observability.metrics import export_fleet
from ..observability.scenario import HANDSET_BATTERY_J, ScenarioResult
from ..observability.spans import Telemetry
from ..protocols.gateway_runtime import classify_reply, classify_shed_reason
from ..protocols.reliable import VirtualClock
from .runtime import ORIGIN_NAME, CrashPlan, FleetConfig, ShardedFleet

#: When the first shard dies, in virtual seconds.
CRASH_START_S = 0.4


def tally_replies(fleet: ShardedFleet, session_ids: Iterable[str]
                  ) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """Collect every session's replies from ``fleet``, in order.

    Returns ``(counts, per_session, shed_reasons)``: served / degraded /
    shed totals, replies decoded per session, and shed totals per
    ``reason=`` token.
    """
    counts = {"served": 0, "degraded": 0, "shed": 0}
    per_session: Dict[str, int] = {}
    shed_reasons: Dict[str, int] = {}
    for session_id in session_ids:
        replies = fleet.collect_replies(session_id)
        per_session[session_id] = len(replies)
        for reply in replies:
            kind = classify_reply(reply)
            counts[kind] += 1
            if kind == "shed":
                reason = classify_shed_reason(reply)
                shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    return counts, per_session, shed_reasons


def run_failover(sessions: int = 24, shards: int = 4,
                 requests_per_session: int = 6,
                 interarrival_s: float = 0.35,
                 seed: int = 2003,
                 instrument=None,
                 probe_enabled: bool = True) -> ScenarioResult:
    """One seeded multi-shard crash run with telemetry on.

    The crash plan is a staggered sweep killing every shard exactly
    once (so migrations always have survivors) spread across the
    request window from :data:`CRASH_START_S`; shards restart between
    crashes, so later crashes migrate sessions onto earlier casualties.

    ``instrument`` is the observability seam: called with
    ``(fleet, telemetry)`` after the fleet is built but before any
    session attaches, it may return a finisher callable invoked after
    the run loop drains (still inside the probe activation) — the
    fleetwatch layer hooks its window sampler and final flush here
    without forking the scenario.  ``probe_enabled=False`` runs the
    identical scenario with the probe seam dark (no spans, no
    activation — the zero-overhead baseline the observability bench
    compares against); the returned reconciliation is then vacuous,
    since nothing attributes energy.
    """
    # Size the bounded stores *below* the per-shard session count:
    # journal-index evictions force some sessions down the cold
    # (resumption) path and ticket-cache evictions force a few all the
    # way to the full re-handshake — the chaos run exercises every
    # recovery tier, not just the warm one.
    config = FleetConfig(
        shards=shards,
        journal_index_limit=max(2, (2 * sessions) // (3 * shards)),
        ticket_cache_limit=max(3, (2 * sessions) // 3))
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("fleet-failover", sessions, shards, requests_per_session,
              interarrival_s, seed),
        clock=clock, label="fleet-failover")
    batteries = {
        f"handset-{index:02d}": Battery(capacity_j=HANDSET_BATTERY_J)
        for index in range(sessions)
    }
    horizon_s = requests_per_session * interarrival_s
    crash_spacing_s = max(
        horizon_s / max(1, shards),
        config.restart_delay_s + config.heartbeat_interval_s)
    activation = (probe.activate(telemetry) if probe_enabled
                  else contextlib.nullcontext())
    with activation:
        fleet = ShardedFleet(config=config, seed=seed, clock=clock)
        if probe_enabled:
            export_fleet(telemetry.registry, fleet)
        finisher = instrument(fleet, telemetry) if instrument else None
        session_ids = sorted(batteries)
        for session_id in session_ids:
            fleet.attach_session(session_id, battery=batteries[session_id])
        plan = CrashPlan.seeded_sweep(
            shards, start_s=CRASH_START_S, spacing_s=crash_spacing_s,
            seed=seed, jitter_s=config.heartbeat_interval_s / 2.0)
        fleet.apply_plan(plan)
        for round_index in range(requests_per_session):
            for slot, session_id in enumerate(session_ids):
                when = (round_index * interarrival_s
                        + slot * interarrival_s / max(1, sessions))
                fleet.submit_at(
                    when, session_id, ORIGIN_NAME,
                    f"req-{session_id}-{round_index}".encode())
        stats = fleet.run()
        if finisher is not None:
            finisher()
        counts, per_session, shed_reasons = tally_replies(
            fleet, session_ids)
    return ScenarioResult(
        telemetry=telemetry,
        stats=stats,
        counts=counts,
        submitted=fleet.submitted,
        batteries=batteries,
        reconciliation=reconcile_energy(telemetry, batteries.values()),
        params={
            "sessions": sessions,
            "shards": shards,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "crash_start_s": CRASH_START_S,
            "crash_spacing_s": round(crash_spacing_s, 6),
            "seed": seed,
            "battery_capacity_j": HANDSET_BATTERY_J,
        },
        fleet=fleet,
        per_session_replies=per_session,
        shed_reasons=shed_reasons,
    )
