"""The four seeded workloads, driven only through the public APIs.

Each workload turns a seed into a fixed set of inputs at construction
and then runs any number of identical *iterations*.  An iteration
builds the system from scratch (a :class:`ShardedFleet`, or fresh
``wtls_connect`` pairs), pushes the inputs through it, checks
every reply against ``b"OK:" + request`` and returns an
:class:`Outcome`.  Nothing here is timed except the per-session
handshakes and the serve phase; the caller times the whole iteration.

Inputs depend on the seed only in content and order, never in amount:
payload sizes are fixed multisets shuffled by the seed, so two seeds do
the same amount of work and their timings are comparable.  For the same
reason the program's own key material comes from the fixed
:data:`KEY_SEED`: RSA key generation searches for primes, and its cost
varies from one key to the next.

Program functions are reached through their modules at call time
(``attribution.reconcile_energy``, not a name imported once), so the
traced run's wrappers see those calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.crypto import rng as crypto_rng
from repro.fleet import runtime as fleet_runtime
from repro.hardware import battery as hw_battery
from repro.observability import attribution, metrics, probe, spans
from repro.protocols import certificates, ciphersuites, handshake, reliable, wtls

#: Prefixes of the gateway's structured non-answers: a reply with one
#: of these is a shed or degraded answer, anything else claims to be
#: the origin's reply and must be exact.
NON_ANSWER_PREFIXES = (b"GW-BUSY:", b"GW-DEGRADED:")

#: Seed of the fleet's and the record server's keys and generators.
KEY_SEED = 2003


class CheckFailed(Exception):
    """The program answered wrongly: a reply is missing, duplicated, or
    differs from the expected bytes, or the energy ledger is open."""


@dataclass
class Outcome:
    """What one iteration produced and measured."""

    digest: str
    attempted: int
    failed: int
    serve_s: float
    handshake_s: List[float]
    #: Program-side counters the trace report carries per layer
    #: (:data:`spec.PROGRAM_COUNTERS`; a missing one is 0).
    counters: Dict[str, float] = field(default_factory=dict)


def _payload(rng: random.Random, size: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(size))


def _check_replies(expected: Dict[str, List[bytes]],
                   replies: Dict[str, List[bytes]]) -> int:
    """Compare every session's replies with its expected replies.

    Returns the number of requests not answered with the exact expected
    bytes (sheds and degraded answers count).  Raises
    :class:`CheckFailed` on a missing or extra reply, or on a reply that
    claims to be served but carries other bytes."""
    failed = 0
    for session_id, want in expected.items():
        got = replies[session_id]
        if len(got) != len(want):
            raise CheckFailed(
                f"{session_id}: {len(want)} requests but {len(got)} replies")
        for index, (w, g) in enumerate(zip(want, got)):
            if g == w:
                continue
            if not g.startswith(NON_ANSWER_PREFIXES):
                raise CheckFailed(
                    f"{session_id}: reply {index} is not the echo of its "
                    f"request ({g[:24]!r}...)")
            failed += 1
    return failed


def _digest(replies: Dict[str, List[bytes]], extra: object) -> str:
    """sha256 over every session's reply bytes plus a JSON summary."""
    h = hashlib.sha256()
    for session_id in sorted(replies):
        h.update(session_id.encode())
        for reply in replies[session_id]:
            h.update(len(reply).to_bytes(4, "big"))
            h.update(reply)
    h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


# -- fleet workloads ------------------------------------------------------


@dataclass
class FleetSpec:
    """Everything one fleet iteration needs, fixed at construction."""

    name: str
    seed: int
    config: fleet_runtime.FleetConfig
    #: ``(session_id, suite preference or None, battery capacity J)``.
    sessions: List[Tuple[str, Optional[list], float]]
    #: ``(virtual time, session_id, payload)`` in submission order.
    requests: List[Tuple[float, str, bytes]]
    #: ``(start_s, spacing_s, jitter_s)`` of a crash sweep, or ``None``.
    crash_sweep: Optional[Tuple[float, float, float]] = None


class FleetWorkload:
    """Base for workloads that drive a :class:`ShardedFleet`."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.spec = self.build_spec(seed, random.Random(f"e2e:{self.name}:{seed}"))
        self.expected: Dict[str, List[bytes]] = {
            session_id: [] for session_id, _, _ in self.spec.sessions}
        for _, session_id, payload in sorted(
                self.spec.requests, key=lambda item: item[0]):
            self.expected[session_id].append(b"OK:" + payload)

    def build_spec(self, seed: int, rng: random.Random) -> FleetSpec:
        raise NotImplementedError

    def iterate(self) -> Outcome:
        spec = self.spec
        clock = reliable.VirtualClock()
        telemetry = spans.Telemetry(
            seed=("e2e", spec.name, spec.seed), clock=clock, label="e2e")
        batteries = {session_id: hw_battery.Battery(capacity_j=capacity)
                     for session_id, _, capacity in spec.sessions}
        handshake_s: List[float] = []
        with probe.activate(telemetry):
            fleet = fleet_runtime.ShardedFleet(
                config=spec.config, seed=KEY_SEED, clock=clock)
            metrics.export_fleet(telemetry.registry, fleet)
            for session_id, suites, _ in spec.sessions:
                started = perf_counter()
                fleet.attach_session(session_id, battery=batteries[session_id],
                                     suites=suites)
                handshake_s.append(perf_counter() - started)
            if spec.crash_sweep is not None:
                start_s, spacing_s, jitter_s = spec.crash_sweep
                fleet.apply_plan(fleet_runtime.CrashPlan.seeded_sweep(
                    spec.config.shards, start_s=start_s, spacing_s=spacing_s,
                    seed=spec.seed, jitter_s=jitter_s))
            for when, session_id, payload in spec.requests:
                fleet.submit_at(when, session_id, fleet_runtime.ORIGIN_NAME,
                                payload)
            started = perf_counter()
            fleet.run()
            replies = {session_id: fleet.collect_replies(session_id)
                       for session_id in self.expected}
            serve_s = perf_counter() - started
        failed = _check_replies(self.expected, replies)
        reconciliation = attribution.reconcile_energy(
            telemetry, batteries.values())
        if not reconciliation.ok:
            raise CheckFailed(
                f"energy ledger open by {reconciliation.delta_mj:.9f} mJ")
        stats = fleet.stats
        checkpoints = fleet.checkpoints_written()
        totals = fleet.runtime_totals()
        digest = _digest(replies, {
            "totals": totals,
            "checkpoints": checkpoints,
            "stats": dataclasses.asdict(stats),
        })
        migrated = stats.sessions_migrated
        return Outcome(
            digest=digest, attempted=len(spec.requests), failed=failed,
            serve_s=serve_s, handshake_s=handshake_s,
            counters={
                "protocols.wtls.discarded": totals["malformed_discarded"] + sum(
                    fleet.handset(session_id).discarded
                    for session_id in self.expected),
                "fleet.journal.checkpoints_per_request":
                    checkpoints / len(spec.requests),
                "fleet.snapshot.migrations_warm": stats.migrations_warm,
                "fleet.snapshot.migrations_cold_resume":
                    stats.migrations_cold_resume,
                "fleet.snapshot.migrations_cold_full":
                    stats.migrations_cold_full,
                "fleet.snapshot.warm_share":
                    stats.migrations_warm / migrated if migrated else 0.0,
            })


def _sizes(count: int, lo: int, hi: int) -> List[int]:
    """``count`` sizes spread evenly over ``[lo, hi]``."""
    return [lo + (hi - lo) * index // max(1, count - 1) for index in range(count)]


def _lognormal_sizes(count: int, median: float, sigma: float,
                     lo: int, hi: int) -> List[int]:
    """The ``count`` evenly spaced quantiles of a lognormal, clamped."""
    normal = statistics.NormalDist()
    return [max(lo, min(hi, round(median * math.exp(
        sigma * normal.inv_cdf((index + 0.5) / count)))))
        for index in range(count)]


class FailoverWorkload(FleetWorkload):
    """24 3DES handsets on 4 shards with every shard killed once.

    Requests come in six rounds, each spread over 1 s of virtual time.
    Rounds sit between the crash windows (a crash lands at
    ``start + k * spacing`` plus up to 0.25 s of seeded jitter, and its
    sessions have migrated 1.5 s later), so every request is answered
    and none is shed, while each crash still migrates live sessions
    that later rounds use.  The journal index and the ticket store are
    sized below the session count, as in the canonical failover run,
    so warm, cold-resume and cold-full recovery all occur."""

    name = "failover_3des"
    SESSIONS = 24
    SHARDS = 4
    ROUNDS_AT = (0.0, 3.75, 8.25, 12.75, 17.25, 19.25)
    CRASH_SWEEP = (2.0, 4.5, 0.25)

    def build_spec(self, seed: int, rng: random.Random) -> FleetSpec:
        ids = [f"handset-{index:02d}" for index in range(self.SESSIONS)]
        sizes = _sizes(self.SESSIONS * len(self.ROUNDS_AT), 16, 64)
        rng.shuffle(sizes)
        requests = []
        for base in self.ROUNDS_AT:
            for slot, session_id in enumerate(ids):
                when = base + slot * 1.0 / self.SESSIONS
                requests.append((when, session_id, _payload(rng, sizes.pop())))
        config = fleet_runtime.FleetConfig(
            shards=self.SHARDS,
            journal_index_limit=max(2, (2 * self.SESSIONS) // (3 * self.SHARDS)),
            ticket_cache_limit=max(3, (2 * self.SESSIONS) // 3))
        return FleetSpec(
            name=self.name, seed=seed, config=config,
            sessions=[(session_id, None, 5.0) for session_id in ids],
            requests=requests, crash_sweep=self.CRASH_SWEEP)


class MCommerceWorkload(FleetWorkload):
    """24 handsets on 3 healthy shards leading with the stream suites.

    Coin-cell handsets (2 J) lead with A5/1, Grain or Trivium, standard
    ones (5 J) with Grain, Trivium or RC4; the seed rotates which
    handset gets which lead.  Six rounds 2 s apart keep every shard
    below its 8 req/s admission rate."""

    name = "mcommerce_stream"
    SESSIONS = 24
    SHARDS = 3
    REQUESTS = 6
    ROUND_S = 2.0
    POLICIES = (
        (2.0, (ciphersuites.RSA_WITH_A51_228_SHA,
               ciphersuites.RSA_WITH_GRAIN_V1_SHA,
               ciphersuites.RSA_WITH_TRIVIUM_SHA)),
        (5.0, (ciphersuites.RSA_WITH_GRAIN_V1_SHA,
               ciphersuites.RSA_WITH_TRIVIUM_SHA,
               ciphersuites.RSA_WITH_RC4_SHA)),
    )

    def build_spec(self, seed: int, rng: random.Random) -> FleetSpec:
        rotation = rng.randrange(3)
        sessions = []
        for index in range(self.SESSIONS):
            capacity, leads = self.POLICIES[index % 2]
            lead = leads[(index // 2 + rotation) % len(leads)]
            suites = [lead] + [suite for suite in ciphersuites.ALL_SUITES
                               if suite is not lead]
            sessions.append((f"handset-{index:02d}", suites, capacity))
        sizes = _lognormal_sizes(self.SESSIONS * self.REQUESTS,
                                 median=120.0, sigma=0.8, lo=16, hi=600)
        rng.shuffle(sizes)
        requests = []
        for round_index in range(self.REQUESTS):
            for slot, (session_id, _, _) in enumerate(sessions):
                when = (round_index * self.ROUND_S
                        + slot * self.ROUND_S / self.SESSIONS)
                requests.append((when, session_id, _payload(rng, sizes.pop())))
        return FleetSpec(
            name=self.name, seed=seed,
            config=fleet_runtime.FleetConfig(shards=self.SHARDS),
            sessions=sessions, requests=requests)


class HandshakeStormWorkload(FleetWorkload):
    """96 handsets on 4 shards, one 32 B request each over 3 s,
    alternating AES-CBC-SHA and RC4-SHA: session setup dominates."""

    name = "handshake_storm"
    SESSIONS = 96
    SHARDS = 4
    SPREAD_S = 3.0

    def build_spec(self, seed: int, rng: random.Random) -> FleetSpec:
        pair = [ciphersuites.RSA_WITH_AES_SHA, ciphersuites.RSA_WITH_RC4_SHA]
        rng.shuffle(pair)
        sessions = []
        requests = []
        for index in range(self.SESSIONS):
            lead = pair[index % 2]
            suites = [lead] + [suite for suite in ciphersuites.ALL_SUITES
                               if suite is not lead]
            session_id = f"handset-{index:02d}"
            sessions.append((session_id, suites, 5.0))
            requests.append((index * self.SPREAD_S / self.SESSIONS,
                             session_id, _payload(rng, 32)))
        return FleetSpec(
            name=self.name, seed=seed,
            config=fleet_runtime.FleetConfig(shards=self.SHARDS),
            sessions=sessions, requests=requests)


# -- the handset record workload -----------------------------------------


class HandsetRecordsWorkload:
    """Handset-to-gateway WTLS pairs over the five non-3DES suites,
    with the probe dark.

    Per suite and iteration: 24 request/reply round trips at 64 B and
    24 at 1 KiB, spread over four ``wtls_connect`` pairs so that an
    iteration also yields 20 handshake samples (five iterations give
    the 100 a run needs)."""

    name = "handset_records"
    SERVER = "records.example"
    SUITES = (
        ciphersuites.RSA_WITH_AES_SHA,
        ciphersuites.RSA_WITH_RC4_SHA,
        ciphersuites.RSA_WITH_A51_228_SHA,
        ciphersuites.RSA_WITH_GRAIN_V1_SHA,
        ciphersuites.RSA_WITH_TRIVIUM_SHA,
    )
    ROUND_TRIPS = ((64, 24), (1024, 24))
    CONNECTIONS_PER_SUITE = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"e2e:{self.name}:{seed}")
        self.ca = certificates.CertificateAuthority(
            "E2E-CA", crypto_rng.DeterministicDRBG(f"e2e-ca:{KEY_SEED}"))
        self.key, self.cert = self.ca.issue(
            self.SERVER, crypto_rng.DeterministicDRBG(f"e2e-server:{KEY_SEED}"))
        #: ``{connection id: (suite, payloads)}``
        self.connections: Dict[str, Tuple[object, List[bytes]]] = {}
        for suite in self.SUITES:
            sizes = [size for size, count in self.ROUND_TRIPS
                     for _ in range(count)]
            rng.shuffle(sizes)
            share = len(sizes) // self.CONNECTIONS_PER_SUITE
            for index in range(self.CONNECTIONS_PER_SUITE):
                self.connections[f"{suite.name}#{index}"] = (suite, [
                    _payload(rng, size)
                    for size in sizes[index * share:(index + 1) * share]])
        self.expected = {
            conn_id: [b"OK:" + payload for payload in payloads]
            for conn_id, (_, payloads) in self.connections.items()}

    def iterate(self) -> Outcome:
        handshake_s: List[float] = []
        replies: Dict[str, List[bytes]] = {}
        serve_s = 0.0
        discarded = 0
        for conn_id, (suite, payloads) in self.connections.items():
            client = handshake.ClientConfig(
                rng=crypto_rng.DeterministicDRBG(
                    f"e2e-client:{conn_id}:{self.seed}"),
                ca=self.ca, suites=[suite], expected_server=self.SERVER)
            server = handshake.ServerConfig(
                rng=crypto_rng.DeterministicDRBG(
                    f"e2e-server-rng:{conn_id}:{self.seed}"),
                certificate=self.cert, private_key=self.key)
            started = perf_counter()
            handset, gateway = wtls.wtls_connect(client, server)
            handshake_s.append(perf_counter() - started)
            got: List[bytes] = []
            started = perf_counter()
            for payload in payloads:
                handset.send(payload)
                gateway.send(b"OK:" + gateway.receive())
                got.append(handset.receive())
            serve_s += perf_counter() - started
            replies[conn_id] = got
            discarded += handset.discarded + gateway.discarded
        failed = _check_replies(self.expected, replies)
        attempted = sum(len(want) for want in self.expected.values())
        return Outcome(digest=_digest(replies, {}), attempted=attempted,
                       failed=failed, serve_s=serve_s, handshake_s=handshake_s,
                       counters={"protocols.wtls.discarded": discarded})


WORKLOADS = {
    cls.name: cls for cls in (FailoverWorkload, MCommerceWorkload,
                              HandshakeStormWorkload, HandsetRecordsWorkload)
}


def build(name: str, seed: int):
    """The named workload with its inputs generated from ``seed``."""
    return WORKLOADS[name](seed)
