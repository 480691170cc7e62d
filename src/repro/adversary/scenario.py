"""The canonical mixed benign/attack load scenario.

One call builds the N-handset gateway world with telemetry active,
fronts it with the stateless-cookie DoS gate, seeds a four-class
attacker population on the same virtual clock, drives the chaos
traffic shape from :mod:`repro.observability.scenario` while the
population fires, and returns everything the survivability report
needs — with the same determinism contract as every other scenario in
the repo: same seed, byte-identical outcome.

The attacker intensity is parameterized as a *fraction of total
traffic*: ``attacker_fraction=0.5`` makes attacker events arrive at
the same aggregate rate as benign requests.  ``attacker_fraction=0``
is the attack-free baseline the survivability bound is declared
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..conformance.fuzzcorpus import default_targets, mutation_stream
from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery
from ..observability.metrics import (
    export_adversary_population,
    export_dos_responder,
    export_runtime,
)
from ..observability.scenario import (HANDSET_BATTERY_J, ScenarioResult,
                                      ScenarioWorld, handset_capacities)
from ..protocols.dos import CookieProtectedResponder
from ..protocols.faults import FaultyChannel
from ..protocols.gateway_runtime import (
    OPEN,
    RuntimeConfig,
    build_gateway_runtime_world,
    drain_replies,
    submit_rounds,
)
from ..protocols.alerts import ProtocolAlert
from ..protocols.transport import ChannelClosed
from ..protocols.wap import GATEWAY_NAME, ORIGIN_NAME
from .population import (
    AdversaryPopulation,
    CookieFloodAdversary,
    DowngradeAdversary,
    FuzzInjectionAdversary,
    TimingProbeAdversary,
)

SECRET_ROTATION_S = 0.25
#: Per-handset benign request period, in virtual seconds.
INTERARRIVAL_S = 0.1
#: Every adversary's battery, in joules.
ATTACKER_BATTERY_J = 2.0


def survivability_config() -> RuntimeConfig:
    """The runtime sizing for the survivability scenario.

    Unlike the chaos scenario (which deliberately overloads admission
    to exercise shedding), survivability needs a gateway *sized for its
    benign load*: the attack-free baseline serves essentially
    everything, so any goodput lost under attack is attributable to
    the attackers, not to an under-provisioned bucket.
    """
    return RuntimeConfig(queue_limit=64, bucket_capacity=64.0,
                         bucket_refill_per_s=200.0,
                         service_time_s=0.005)


@dataclass
class SurvivabilityResult(ScenarioResult):
    """One seeded mixed-load run: the scenario ledger plus the
    attackers, the DoS gate and the breaker history."""

    population: AdversaryPopulation
    responder: CookieProtectedResponder
    breakers: Dict[str, List]
    leftover_discarded: int

    @property
    def benign_goodput(self) -> float:
        """Fraction of benign requests fully served."""
        answered = self.answered
        return self.counts.get("served", 0) / answered if answered else 0.0


def _build_population(seed: int, rate_per_class: float, runtime, responder,
                      channels, ca) -> AdversaryPopulation:
    wtls_target = next(t for t in default_targets()
                       if t.name == "wtls_record")
    flood = CookieFloodAdversary(
        "flood-0", rate_per_class, seed, responder,
        battery=Battery(capacity_j=ATTACKER_BATTERY_J))
    downgrade = DowngradeAdversary(
        "mitm-0", rate_per_class, seed,
        server_config=runtime.gateway_config, ca=ca,
        expected_server=GATEWAY_NAME,
        battery=Battery(capacity_j=ATTACKER_BATTERY_J))
    timing = TimingProbeAdversary(
        "probe-0", rate_per_class, seed,
        battery=Battery(capacity_j=ATTACKER_BATTERY_J))
    fuzz = FuzzInjectionAdversary(
        "fuzz-0", rate_per_class, seed, channels,
        mutations=mutation_stream(wtls_target, seed),
        battery=Battery(capacity_j=ATTACKER_BATTERY_J))
    population = AdversaryPopulation(
        [flood, downgrade, timing, fuzz])

    population.add_rule(
        "dos-table-pressure",
        lambda: (f"pending-table evictions: {responder.evicted}"
                 if responder.evicted > 0 else None))
    population.add_rule(
        "wire-garbage",
        lambda: (f"malformed records discarded: "
                 f"{runtime.stats.malformed_discarded}"
                 if runtime.stats.malformed_discarded >= 4 else None))
    population.add_rule(
        "downgrade-attempts",
        lambda: (f"downgrade attempts blocked: "
                 f"{downgrade.downgrades_blocked}"
                 if downgrade.downgrades_blocked >= 1 else None))
    population.add_rule(
        "timing-probe-volume",
        lambda: (f"timing samples observed: {timing.samples_collected}"
                 if timing.samples_collected >= 128 else None))
    population.add_rule(
        "origin-breaker-open",
        lambda: ("origin breaker opened" if any(
            to == OPEN for breaker in runtime.breakers.values()
            for _, _, to in breaker.transitions) else None))
    return population


def run_survivability(sessions: int = 32, requests_per_session: int = 4,
                      attacker_fraction: float = 0.5,
                      fault_rate: float = 0.0, seed: int = 2003
                      ) -> SurvivabilityResult:
    """One seeded mixed benign/attack run on a single virtual clock.

    The benign side is the chaos traffic shape (``sessions`` handsets,
    ``requests_per_session`` rounds); the attacker side is four
    adversary classes whose aggregate Poisson rate makes up
    ``attacker_fraction`` of total traffic.  Every benign request is
    answered (served / degraded / structured shed), every millijoule
    reconciles, and the whole run is a pure function of its parameters.
    """
    if not 0.0 <= attacker_fraction < 1.0:
        raise ValueError("attacker fraction must be in [0, 1)")
    world = ScenarioWorld(
        "survivability",
        (sessions, requests_per_session, INTERARRIVAL_S, attacker_fraction,
         fault_rate, seed),
        handset_capacities(sessions))
    clock, registry = world.clock, world.telemetry.registry
    channels = {
        f"handset-{index:02d}": FaultyChannel(
            seed=seed * 1000 + index)
        for index in range(sessions)
    }
    horizon_s = requests_per_session * INTERARRIVAL_S
    with world.activate():
        runtime, handsets, ca = build_gateway_runtime_world(
            sessions=sessions, seed=seed,
            config=survivability_config(),
            batteries=world.batteries, clock=clock,
            channel_factory=channels.__getitem__)
        runtime.set_fault_rate(ORIGIN_NAME, fault_rate, seed=seed)
        export_runtime(registry, runtime)

        # The DoS front gate: benign handsets pass the cookie exchange
        # at attach time; the flood adversary hammers the same gate.
        responder = CookieProtectedResponder(
            rng=DeterministicDRBG(("surv-dos", seed).__repr__()),
            pending_limit=64)
        export_dos_responder(registry, responder)
        gate_rng = DeterministicDRBG(("surv-gate", seed).__repr__())
        for index, session_id in enumerate(sorted(handsets)):
            address = f"192.168.1.{index + 2}"
            nonce = gate_rng.random_bytes(8)
            cookie = responder.first_contact(address, nonce)
            if cookie is None or not responder.second_contact(
                    address, nonce, cookie):
                raise RuntimeError(
                    f"{session_id} failed the DoS cookie exchange")

        population = AdversaryPopulation([])
        if attacker_fraction > 0.0:
            benign_rate = sessions / INTERARRIVAL_S
            attacker_rate = (attacker_fraction
                             / (1.0 - attacker_fraction)) * benign_rate
            population = _build_population(
                seed, attacker_rate / 4.0, runtime, responder, channels, ca)
            export_adversary_population(registry, population)
        runtime.add_ticker(population.tick)

        rotation_state = {"last": 0.0}

        def rotate(now: float) -> None:
            while now - rotation_state["last"] >= SECRET_ROTATION_S:
                rotation_state["last"] += SECRET_ROTATION_S
                responder.rotate_secret()

        runtime.add_ticker(rotate)

        submit_rounds(runtime, handsets, ORIGIN_NAME, requests_per_session,
                      INTERARRIVAL_S)
        stats = runtime.run()

        # Let the population catch up to the scenario horizon, then
        # sweep any still-queued injected garbage through the gateway's
        # skip-and-count path (it must never crash on leftovers).
        if horizon_s > clock.now:
            clock.advance_to(horizon_s)
        population.tick(clock.now)
        session_ids = sorted(handsets)
        leftover_before = sum(
            runtime.sessions[sid].conn.discarded for sid in session_ids)
        for session_id in session_ids:
            conn = runtime.sessions[session_id].conn
            for _ in range(256):
                try:
                    conn.receive_next(max_skip=64)
                except ChannelClosed:
                    break
                except ProtocolAlert:
                    continue  # budget spent mid-garbage: keep sweeping
        leftover_discarded = sum(
            runtime.sessions[sid].conn.discarded
            for sid in session_ids) - leftover_before
        population.finish(clock.now)
        tally = drain_replies(runtime, handsets)
    return world.result(
        tally, SurvivabilityResult,
        extra_batteries=[adversary.battery
                         for adversary in population.adversaries],
        stats=stats,
        submitted=stats.submitted,
        population=population,
        responder=responder,
        breakers={origin: list(breaker.transitions)
                  for origin, breaker in sorted(runtime.breakers.items())},
        leftover_discarded=leftover_discarded,
        params={
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "interarrival_s": INTERARRIVAL_S,
            "attacker_fraction": attacker_fraction,
            "fault_rate": fault_rate,
            "seed": seed,
            "battery_capacity_j": HANDSET_BATTERY_J,
            "attacker_battery_j": ATTACKER_BATTERY_J,
        },
    )
