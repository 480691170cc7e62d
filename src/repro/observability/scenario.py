"""The scenario result shape and world, and the canonical telemetry
scenario.

:class:`ScenarioResult` is what every seeded scenario returns — the
telemetry stream, the answer ledger, the batteries and their energy
reconciliation — so a report, a CLI exit status or a composed sweep
reads one shape whatever plane produced it.  The survivability,
m-commerce and fleetwatch scenarios subclass it with their own objects.

:class:`ScenarioWorld` is what every seeded runner shares: the clock,
telemetry, batteries and probe activation, and the closing energy
reconciliation.  Each runner adds only its own plane's steps.

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

import contextlib
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, ContextManager, Dict, Iterable, Optional,
                    Tuple)

from ..hardware.battery import Battery
from ..protocols.gateway_runtime import (
    ReplyTally,
    build_gateway_runtime_world,
    drain_replies,
    submit_rounds,
)
from ..protocols.reliable import VirtualClock
from ..protocols.wap import ORIGIN_NAME
from . import probe
from .attribution import reconcile_energy
from .metrics import export_runtime
from .spans import Telemetry

if TYPE_CHECKING:
    from ..fleet.runtime import FleetStats, ShardedFleet
    from ..protocols.gateway_runtime import RuntimeStats
    from .attribution import EnergyReconciliation

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
    #: ``None`` for a dark run, which attributes no energy.
    reconciliation: Optional[EnergyReconciliation]
    params: Dict[str, object]
    #: The fleet the run drove; ``None`` for a single-gateway world.
    fleet: Optional[ShardedFleet] = None
    per_session_replies: Dict[str, int] = field(default_factory=dict)
    #: Shed replies per ``reason=`` token.
    shed_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Replies the handsets actually decoded, across all sessions."""
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        """Every request answered and, when the run reconciled its
        energy, every millijoule reconciled.  A dark run (probe off)
        has no reconciliation, so only its answers are checked."""
        return self.answered == self.submitted and (
            self.reconciliation is None or self.reconciliation.ok)


def handset_capacities(sessions: int) -> Dict[str, float]:
    """``handset-00`` ... each on a :data:`HANDSET_BATTERY_J` battery."""
    return {f"handset-{index:02d}": HANDSET_BATTERY_J
            for index in range(sessions)}


class ScenarioWorld:
    """One virtual clock, one :class:`Telemetry` seeded with
    ``(label, *key)`` and one battery per ``{session_id: capacity_j}``
    entry.  Build the plane inside :meth:`activate`, then close the run
    with :meth:`result`; a dark world (``lit=False``) activates no
    probe and reconciles nothing."""

    def __init__(self, label: str, key: Tuple, capacities: Dict[str, float],
                 lit: bool = True) -> None:
        self.clock = VirtualClock()
        self.telemetry = Telemetry(seed=(label, *key), clock=self.clock,
                                   label=label)
        self.batteries = {session_id: Battery(capacity_j=capacity_j)
                          for session_id, capacity_j in capacities.items()}
        self.lit = lit

    def activate(self) -> ContextManager:
        """The run's probe activation; a no-op when the world is dark."""
        return (probe.activate(self.telemetry) if self.lit
                else contextlib.nullcontext())

    def result(self, tally: ReplyTally, cls=ScenarioResult,
               extra_batteries: Iterable[Battery] = (), **fields):
        """The run as ``cls``, with the handset batteries and any
        ``extra_batteries`` (attackers, say) reconciled against the
        trace."""
        reconciliation = None
        if self.lit:
            reconciliation = reconcile_energy(
                self.telemetry,
                [*self.batteries.values(), *extra_batteries])
        return cls(telemetry=self.telemetry, batteries=self.batteries,
                   reconciliation=reconciliation, **tally._asdict(),
                   **fields)


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
    world = ScenarioWorld(
        "gateway-chaos",
        (sessions, requests_per_session, interarrival_s, fault_rate, seed),
        handset_capacities(sessions))
    with world.activate():
        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=sessions, seed=seed, batteries=world.batteries,
            clock=world.clock)
        runtime.set_fault_rate(ORIGIN_NAME, fault_rate, seed=seed)
        export_runtime(world.telemetry.registry, runtime)
        submit_rounds(runtime, handsets, ORIGIN_NAME, requests_per_session,
                      interarrival_s)
        stats = runtime.run()
        tally = drain_replies(runtime, handsets)
    return world.result(
        tally,
        stats=stats,
        submitted=stats.submitted,
        params={
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "interarrival_s": interarrival_s,
            "fault_rate": fault_rate,
            "seed": seed,
            "battery_capacity_j": HANDSET_BATTERY_J,
        },
    )
