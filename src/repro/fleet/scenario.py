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

from ..observability.metrics import export_fleet
from ..observability.scenario import (HANDSET_BATTERY_J, ScenarioResult,
                                      ScenarioWorld, handset_capacities)
from ..protocols.gateway_runtime import request_rounds, tally_replies
from .runtime import (HEARTBEAT_INTERVAL_S, ORIGIN_NAME, RESTART_DELAY_S,
                      CrashPlan, FleetConfig, ShardedFleet)

#: When the first shard dies, in virtual seconds.
CRASH_START_S = 0.4


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
    compares against); nothing then attributes energy, so the result
    carries no reconciliation.
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
    world = ScenarioWorld(
        "fleet-failover",
        (sessions, shards, requests_per_session, interarrival_s, seed),
        handset_capacities(sessions), lit=probe_enabled)
    horizon_s = requests_per_session * interarrival_s
    crash_spacing_s = max(horizon_s / max(1, shards),
                          RESTART_DELAY_S + HEARTBEAT_INTERVAL_S)
    with world.activate():
        fleet = ShardedFleet(config=config, seed=seed, clock=world.clock)
        if probe_enabled:
            export_fleet(world.telemetry.registry, fleet)
        finisher = instrument(fleet, world.telemetry) if instrument else None
        session_ids = sorted(world.batteries)
        for session_id in session_ids:
            fleet.attach_session(session_id,
                                 battery=world.batteries[session_id])
        plan = CrashPlan.seeded_sweep(
            shards, start_s=CRASH_START_S, spacing_s=crash_spacing_s,
            seed=seed, jitter_s=HEARTBEAT_INTERVAL_S / 2.0)
        fleet.apply_plan(plan)
        for when, session_id, payload in request_rounds(
                session_ids, requests_per_session, interarrival_s):
            fleet.submit_at(when, session_id, ORIGIN_NAME, payload)
        stats = fleet.run()
        if finisher is not None:
            finisher()
        tally = tally_replies({session_id: fleet.collect_replies(session_id)
                               for session_id in session_ids})
    return world.result(
        tally,
        stats=stats,
        submitted=fleet.submitted,
        fleet=fleet,
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
    )
