"""The scenario result shape, and the canonical telemetry scenario.

:class:`ScenarioResult` is what every seeded scenario returns — the
telemetry stream, the answer ledger, the batteries and their energy
reconciliation — so a report, a CLI exit status or a composed sweep
reads one shape whatever plane produced it.  The survivability,
m-commerce and fleetwatch scenarios subclass it with their own objects.

:func:`run_gateway_chaos` is the telemetry scenario itself: one call
builds the full N-handset gateway world **with telemetry active from
the first handshake**, drives the chaos traffic shape
(:func:`~repro.protocols.gateway_runtime.submit_rounds`, shared with
:func:`repro.analysis.chaos.chaos_point`), and returns the finished
:class:`~repro.observability.spans.Telemetry` alongside the usual
served/degraded/shed ledger — everything ``python -m repro run
telemetry``, the CI smoke job, and the acceptance tests need.

Determinism: the virtual clock is shared between the runtime and the
telemetry context, every RNG is a seeded
:class:`~repro.crypto.rng.DeterministicDRBG`, and the trace id derives
from the scenario parameters — so two same-seed runs export
byte-identical JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..hardware.battery import Battery
from ..protocols.gateway_runtime import (
    build_gateway_runtime_world,
    drain_replies,
    submit_rounds,
)
from ..protocols.reliable import VirtualClock
from . import probe
from .attribution import reconcile_energy
from .metrics import export_runtime
from .spans import Telemetry

if TYPE_CHECKING:
    from ..fleet.runtime import FleetStats, ShardedFleet
    from ..protocols.gateway_runtime import RuntimeStats
    from .attribution import EnergyReconciliation

ORIGIN = "origin.example"

#: Every benign handset's battery, in joules.
HANDSET_BATTERY_J = 5.0


@dataclass(kw_only=True)
class ScenarioResult:
    """Everything one seeded scenario run produced."""

    telemetry: Telemetry
    stats: RuntimeStats | FleetStats
    #: Replies the handsets decoded: served / degraded / shed.
    counts: Dict[str, int]
    #: Benign requests the scenario submitted.
    submitted: int
    batteries: Dict[str, Battery]
    reconciliation: EnergyReconciliation
    params: Dict[str, object]
    #: The fleet the run drove; ``None`` for a single-gateway world.
    fleet: Optional[ShardedFleet] = None
    per_session_replies: Dict[str, int] = field(default_factory=dict)
    #: Shed replies per ``reason=`` token (fleet runs only).
    shed_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Replies the handsets actually decoded, across all sessions."""
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        """Every request answered and every millijoule reconciled."""
        return self.answered == self.submitted and self.reconciliation.ok


def run_gateway_chaos(sessions: int = 32, requests_per_session: int = 4,
                      interarrival_s: float = 0.1, fault_rate: float = 0.2,
                      seed: int = 0) -> ScenarioResult:
    """One seeded chaos run with the telemetry plane on.

    Telemetry is activated *before* the world is built so the session
    handshakes (and their kex/modexp descendants) land in the trace;
    the virtual clock is shared with the runtime so span timestamps
    and gateway scheduling live on one timeline.  Per-handset
    batteries back every radio charge, making the energy
    reconciliation (:func:`~repro.observability.attribution
    .reconcile_energy`) a real end-to-end check.
    """
    clock = VirtualClock()
    telemetry = Telemetry(
        seed=("gateway-chaos", sessions, requests_per_session,
              interarrival_s, fault_rate, seed),
        clock=clock, label="gateway-chaos")
    batteries = {
        f"handset-{index:02d}": Battery(capacity_j=HANDSET_BATTERY_J)
        for index in range(sessions)
    }
    with probe.activate(telemetry):
        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=sessions, seed=seed, batteries=batteries, clock=clock)
        runtime.set_fault_rate(ORIGIN, fault_rate, seed=seed)
        export_runtime(telemetry.registry, runtime)
        submit_rounds(runtime, handsets, ORIGIN, requests_per_session,
                      interarrival_s)
        stats = runtime.run()
        counts = drain_replies(runtime, handsets)
    return ScenarioResult(
        telemetry=telemetry,
        stats=stats,
        counts=counts,
        submitted=stats.submitted,
        batteries=batteries,
        reconciliation=reconcile_energy(telemetry, batteries.values()),
        params={
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "fault_rate": fault_rate,
            "seed": seed,
            "battery_capacity_j": HANDSET_BATTERY_J,
        },
    )
