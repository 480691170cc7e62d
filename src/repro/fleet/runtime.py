"""The crash-recoverable sharded gateway fleet.

ROADMAP's scaling question — one ``GatewayRuntime`` box toward a
fleet — changes the dominant failure mode: at fleet scale the thing
that dies mid-session is not a lossy link (PR 2) or a flaky engine
(PR 3) but a *whole gateway shard* with all its in-memory session
state.  :class:`ShardedFleet` supervises N
:class:`~repro.protocols.gateway_runtime.GatewayRuntime` shards on one
batched :class:`~repro.fleet.scheduler.EventScheduler` and makes that
failure survivable:

* handsets are placed on shards by consistent hashing
  (:class:`~repro.fleet.ring.ConsistentRing`), sticky after migration;
* every answered request atomically checkpoints the session's record
  layer state into the owner shard's write-ahead
  :class:`~repro.fleet.journal.CheckpointJournal` (within the same
  scheduler event as the reply — a crash between reply and checkpoint
  cannot exist in this failure model, only a torn final frame);
* a seeded :class:`CrashPlan` kills shards at planned virtual times;
  a watchdog heartbeat detects the silence, and recovery migrates the
  dead shard's sessions onto survivors — **warm** from the last
  durable checkpoint (with a sequence skip covering the torn tail),
  **cold** via the PR 2 resumption path when the checkpoint or ticket
  is gone, and **cold-full** re-handshake as the final fallback;
* every request the dead shard consumed or missed is answered with a
  structured ``GW-BUSY: reason=recovering`` shed, charged to the
  handset battery like any other airlink crossing, so the ledger
  "every request answered or shed, energy reconciled exactly" still
  closes over crashes.

Everything — crash times, tear sizes, eviction victims, migration
targets — is seeded, so two same-seed runs are byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery, BatteryEmpty
from ..hardware.energy import EnergyModel
from ..observability import probe
from ..observability.metrics import quantile_of
from ..observability.tracecontext import TraceContext, attach, baggage_attrs
from ..protocols.alerts import HandshakeFailure
from ..protocols.certificates import CertificateAuthority
from ..protocols.gateway_runtime import (
    MALFORMED_SKIP,
    GatewayRuntime,
    RuntimeConfig,
    busy_reply,
)
from ..protocols.handshake import (
    ClientConfig,
    ServerConfig,
    Session,
)
from ..protocols.kdf import prf
from ..protocols.reliable import VirtualClock
from ..protocols.resumption import (
    CachedSession,
    SessionCache,
    cache_session,
    resume,
)
from ..protocols.transport import ChannelEmpty, DuplexChannel
from ..protocols.wap import GATEWAY_NAME, ORIGIN_NAME, OriginServer
from ..protocols.wtls import (
    WTLSConnection,
    _rederive,
    connection_pair,
    wtls_connect_session,
)
from .journal import CheckpointJournal
from .ring import ConsistentRing
from .scheduler import Event, EventScheduler
from .snapshot import capture_connection, restore_connection

VNODES = 8                    # ring points per shard
HEARTBEAT_INTERVAL_S = 0.5
HEARTBEAT_MISS_THRESHOLD = 2  # misses before a shard is declared dead
FAILOVER_DELAY_S = 0.25       # detection -> migration complete
RESTART_DELAY_S = 4.0         # crash detection -> shard back up
SEQUENCE_SKIP = 64            # torn-tail cover on warm restore
TICKET_GENERATION_LIMIT = 8   # ticket-cache rotations a ticket survives
#: Every shard's runtime tunables.  ``reply_batch`` stays 1: a batched
#: outbox is volatile state the checkpoint does not cover.
SHARD_RUNTIME = RuntimeConfig()


@dataclass(frozen=True)
class FleetConfig:
    """The fleet sizing a scenario chooses; everything else is a module
    constant above."""

    shards: int = 4
    journal_index_limit: int = 64
    ticket_cache_limit: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("fleet needs at least one shard")


@dataclass
class ShardCrash:
    """One planned shard death."""

    shard: int
    at_s: float


@dataclass
class CrashPlan:
    """Everything that will kill a shard, on one virtual timeline
    (the hardware plane's ``FaultPlan`` idiom, one layer up)."""

    crashes: List[ShardCrash] = field(default_factory=list)

    def kill_shard(self, shard: int, at_s: float) -> "CrashPlan":
        """Schedule one shard death."""
        self.crashes.append(ShardCrash(shard, at_s))
        return self

    @classmethod
    def seeded_sweep(cls, shards: int, start_s: float, spacing_s: float,
                     seed: int = 0, jitter_s: float = 0.0) -> "CrashPlan":
        """Kill every shard exactly once, staggered so survivors always
        exist to migrate onto, with seeded per-crash jitter."""
        rng = DeterministicDRBG(("crash-plan", shards, seed).__repr__())
        plan = cls()
        for index in range(shards):
            jitter = (rng.random() * jitter_s) if jitter_s > 0 else 0.0
            plan.kill_shard(index, start_s + index * spacing_s + jitter)
        return plan


@dataclass
class FleetStats:
    """The fleet supervisor's ledger (shard runtimes keep their own)."""

    crashes: int = 0
    detections: int = 0
    restarts: int = 0
    heartbeat_misses: int = 0
    sessions_migrated: int = 0
    migrations_warm: int = 0
    migrations_cold_resume: int = 0
    migrations_cold_full: int = 0
    checkpoints_restored: int = 0
    shed_recovering: int = 0
    requests_while_down: int = 0
    black_holed_frames: int = 0
    flushed_replies: int = 0
    migration_deferrals: int = 0
    battery_refusals: int = 0
    recovery_energy_mj: float = 0.0
    journal_bytes_torn: int = 0
    recovery_latencies: List[float] = field(default_factory=list)

    def recovery_p95_s(self) -> float:
        """p95 virtual-time session recovery latency (crash->migrated),
        via the shared fixed-bucket interpolation estimator."""
        return quantile_of(self.recovery_latencies, 0.95)

    def recovery_p50_s(self) -> float:
        """Median virtual-time session recovery latency."""
        return quantile_of(self.recovery_latencies, 0.5)


class _Shard:
    """One gateway shard: runtime + journal + liveness, and the
    scheduler work-source adapter (dead shards report idle)."""

    def __init__(self, index: int, name: str,
                 runtime: GatewayRuntime, journal: CheckpointJournal) -> None:
        self.index = index
        self.name = name
        self.runtime = runtime
        self.journal = journal
        self.alive = True
        self.detected = False
        self.misses = 0
        self.crash_time = 0.0
        self.detected_time = 0.0
        self.crash_count = 0
        self.restarts = 0
        self.heartbeat: Optional[Event] = None

    def next_event_time(self) -> Optional[float]:
        if not self.alive:
            return None
        return self.runtime.next_event_time()

    def step(self) -> bool:
        if not self.alive:
            return False
        return self.runtime.step()


class ShardedFleet:
    """Supervisor of N gateway shards with crash-fault tolerance."""

    def __init__(self, config: Optional[FleetConfig] = None, seed: int = 0,
                 clock: Optional[VirtualClock] = None) -> None:
        self.config = config or FleetConfig()
        self.seed = seed
        self.clock = clock or VirtualClock()
        self.scheduler = EventScheduler(self.clock)
        self.stats = FleetStats()
        self.energy = EnergyModel()

        self.ca = CertificateAuthority(
            "WAP-CA", DeterministicDRBG(("fleet-ca", seed).__repr__()))
        self._gw_key, self._gw_cert = self.ca.issue(
            GATEWAY_NAME, DeterministicDRBG(("fleet-gw", seed).__repr__()))
        origin_key, origin_cert = self.ca.issue(
            ORIGIN_NAME, DeterministicDRBG(("fleet-origin", seed).__repr__()))
        self.origin = OriginServer(
            name=ORIGIN_NAME, handler=lambda request: b"OK:" + request,
            config=ServerConfig(
                rng=DeterministicDRBG(("fleet-origin-rng", seed).__repr__()),
                certificate=origin_cert, private_key=origin_key))

        self.shards: List[_Shard] = []
        for index in range(self.config.shards):
            self.shards.append(self._build_shard(index, restart_epoch=0))
        self.ring = ConsistentRing(
            [shard.name for shard in self.shards], vnodes=VNODES)
        self._by_name = {shard.name: shard for shard in self.shards}
        for shard in self.shards:
            self.scheduler.add_source(shard)
            shard.heartbeat = self.scheduler.every(
                HEARTBEAT_INTERVAL_S,
                self._make_heartbeat(shard), label=f"hb-{shard.name}")

        # Fleet-shared resumption state: the bounded, seeded-eviction
        # ticket store every shard can reach (the replicated half of
        # the recovery story — session *tickets* survive any one crash).
        self.ticket_cache = SessionCache(
            capacity=self.config.ticket_cache_limit,
            eviction_rng=DeterministicDRBG(
                ("fleet-tickets", seed).__repr__()),
            generation_limit=TICKET_GENERATION_LIMIT)

        self._crash_rng = DeterministicDRBG(("fleet-crash", seed).__repr__())
        self._ticket_rng = DeterministicDRBG(
            ("fleet-ticket-ids", seed).__repr__())

        # Per-session fleet state.
        self.placement: Dict[str, str] = {}
        self.channels: Dict[str, DuplexChannel] = {}
        self.handsets: Dict[str, WTLSConnection] = {}
        self.batteries: Dict[str, Optional[Battery]] = {}
        self.client_configs: Dict[str, ClientConfig] = {}
        self.client_caches: Dict[str, SessionCache] = {}
        self.tickets: Dict[str, bytes] = {}
        #: The per-session journey context (trace id + baggage); warm
        #: restores re-read it from the checkpoint, cold tiers from
        #: here — the fleet-memory propagation path.
        self.trace_contexts: Dict[str, TraceContext] = {}
        #: ``to_bytes()`` cache — contexts change only at attach and
        #: migration, so checkpoints reuse the serialized form instead
        #: of re-encoding on every answered request.
        self._ctx_bytes: Dict[str, bytes] = {}
        self.mutations: Dict[str, int] = {}
        self.unanswered: Dict[str, Deque[str]] = {}
        self.reply_buffer: Dict[str, List[bytes]] = {}
        self.submitted = 0

    # -- construction --------------------------------------------------------

    def _build_shard(self, index: int, restart_epoch: int) -> _Shard:
        name = f"shard-{index:02d}"
        runtime = GatewayRuntime(
            ca=self.ca,
            rng=DeterministicDRBG(
                ("fleet-gw-rng", index, restart_epoch,
                 self.seed).__repr__()),
            gateway_config=ServerConfig(
                rng=DeterministicDRBG(
                    ("fleet-gw-srv", index, restart_epoch,
                     self.seed).__repr__()),
                certificate=self._gw_cert, private_key=self._gw_key),
            origins=[self.origin], config=SHARD_RUNTIME, clock=self.clock)
        runtime.answer_hook = self._on_answer
        runtime.shard_label = name
        journal = CheckpointJournal(
            name, seed=self.seed,
            index_limit=self.config.journal_index_limit)
        return _Shard(index, name, runtime, journal)

    def alive_shards(self) -> List[str]:
        """Names of currently-live shards."""
        return [shard.name for shard in self.shards if shard.alive]

    # -- sessions ------------------------------------------------------------

    def attach_session(self, session_id: str,
                       battery: Optional[Battery] = None,
                       suites=None) -> WTLSConnection:
        """Handshake one handset onto its ring-placed shard; returns
        the handset-side connection (the fleet tracks replacements —
        prefer :meth:`handset` over holding this reference).

        ``suites`` overrides the handset's cipher-suite preference list
        (the m-commerce workload plane uses it to model battery-class
        suite policies); ``None`` keeps the stack default."""
        if session_id in self.placement:
            raise ValueError(f"session {session_id!r} already attached")
        owner = self._by_name[self.ring.owner(
            session_id, self.alive_shards())]
        channel = DuplexChannel()
        client = ClientConfig(
            rng=DeterministicDRBG((session_id, self.seed).__repr__()),
            ca=self.ca, expected_server=GATEWAY_NAME)
        if suites is not None:
            client = replace(client, suites=list(suites))
        handset_class = (f"{battery.capacity_j:g}J" if battery is not None
                         else "unpowered")
        ctx = TraceContext.root(
            "session-journey", session_id, self.seed,
            session=session_id, handset_class=handset_class,
            shard=owner.name)
        self.trace_contexts[session_id] = ctx
        self._ctx_bytes[session_id] = ctx.to_bytes()
        with probe.span("fleet.attach", shard=owner.name,
                        session=session_id) as span:
            if span is not None:
                attach(span, ctx)
            handset_conn, gateway_conn, client_session = wtls_connect_session(
                client, owner.runtime.gateway_config, channel)
        owner.runtime.adopt_session(session_id, gateway_conn, battery)
        self.placement[session_id] = owner.name
        self.channels[session_id] = channel
        self.handsets[session_id] = handset_conn
        self.batteries[session_id] = battery
        self.client_configs[session_id] = client
        self.client_caches[session_id] = SessionCache(capacity=4)
        self.mutations[session_id] = 0
        self.unanswered[session_id] = deque()
        self.reply_buffer[session_id] = []
        self._issue_ticket(session_id, client_session)
        self._checkpoint(session_id)
        return handset_conn

    def _issue_ticket(self, session_id: str, client_session) -> None:
        """Cache ``client_session`` on the handset and in the fleet-wide
        ticket cache under one fresh ticket, the next crash's resumption
        key."""
        ticket = cache_session(
            self.client_caches[session_id], client_session,
            self._ticket_rng)
        self.ticket_cache.store(CachedSession(
            session_id=ticket, suite_name=client_session.suite.name,
            master=client_session.master))
        self.tickets[session_id] = ticket

    def handset(self, session_id: str) -> WTLSConnection:
        """The session's *current* handset-side connection (cold
        recovery replaces it)."""
        return self.handsets[session_id]

    # -- traffic -------------------------------------------------------------

    def submit_at(self, when: float, session_id: str, destination: str,
                  payload: bytes) -> None:
        """Schedule one handset request at an absolute virtual time."""
        self.scheduler.at(
            when, lambda now: self._do_submit(session_id, destination,
                                              payload),
            label=f"req-{session_id}")

    def _do_submit(self, session_id: str, destination: str,
                   payload: bytes) -> None:
        self.handsets[session_id].send(payload)
        self.unanswered[session_id].append(destination)
        self.submitted += 1
        shard = self._by_name[self.placement[session_id]]
        if shard.alive and session_id in shard.runtime.sessions:
            shard.runtime.submit(session_id, destination, 0.0)
        else:
            # The owner is down: the frame sits on the bearer and the
            # fleet answers at migration time with a recovering shed.
            self.stats.requests_while_down += 1

    def _on_answer(self, session_id: str, payload: bytes) -> None:
        pending = self.unanswered.get(session_id)
        if pending:
            pending.popleft()
        self._checkpoint(session_id)

    # -- checkpointing -------------------------------------------------------

    def _checkpoint(self, session_id: str) -> None:
        shard = self._by_name[self.placement[session_id]]
        if not shard.alive:
            return
        conn = shard.runtime.sessions[session_id].conn
        battery = self.batteries[session_id]
        snapshot = capture_connection(
            session_id, conn, ticket=self.tickets[session_id],
            battery_remaining_mj=(
                battery.remaining_j * 1000.0 if battery else 0.0),
            mutation=self.mutations[session_id],
            trace_ctx=self._ctx_bytes.get(session_id, b""))
        self.mutations[session_id] += 1
        shard.journal.append(snapshot)

    # -- the crash injector --------------------------------------------------

    def apply_plan(self, plan: CrashPlan) -> None:
        """Schedule every planned shard death."""
        for crash in plan.crashes:
            shard = self.shards[crash.shard]
            self.scheduler.at(
                crash.at_s,
                lambda now, shard=shard: self._crash(shard, now),
                label=f"crash-{shard.name}")

    def _crash(self, shard: _Shard, now: float) -> None:
        if not shard.alive:
            return
        shard.alive = False
        shard.detected = False
        shard.misses = 0
        shard.crash_time = now
        shard.crash_count += 1
        self.stats.crashes += 1
        # The in-flight journal frame tears with seeded probability —
        # the write that was mid-flush when power dropped.
        sizes = shard.journal.frame_sizes()
        if sizes and self._crash_rng.random() < 0.5:
            torn = self._crash_rng.randrange(1, sizes[-1] + 1)
            self.stats.journal_bytes_torn += shard.journal.tear_tail(torn)
        # Span-stack hygiene: anything the dead shard left open must
        # not stay on the stack for the next shard's spans to nest
        # under — abort it (``aborted=true``) at the crash instant.
        telemetry = probe.active
        if telemetry is not None:
            telemetry.abort_where(
                lambda span: span.attrs.get("shard") == shard.name,
                abort_reason="shard-crash")
        probe.event("fleet.crash", shard=shard.name, at_s=round(now, 6),
                    sessions=len(shard.runtime.sessions))
        if telemetry is not None:
            # One orphan milestone per session, stamped with the
            # journey context so the crash joins the stitched trace.
            for session_id in sorted(
                    sid for sid, owner in self.placement.items()
                    if owner == shard.name):
                ctx = self.trace_contexts.get(session_id)
                attrs = baggage_attrs(ctx) if ctx is not None else {}
                attrs.update(session=session_id, shard=shard.name,
                             at_s=round(now, 6))
                telemetry.event("fleet.session_orphaned", **attrs)

    def _make_heartbeat(self, shard: _Shard) -> Callable[[float], None]:
        def beat(now: float) -> None:
            if shard.alive:
                shard.misses = 0
                return
            shard.misses += 1
            self.stats.heartbeat_misses += 1
            probe.event("fleet.heartbeat_miss", shard=shard.name,
                        misses=shard.misses)
            if shard.misses >= HEARTBEAT_MISS_THRESHOLD \
                    and not shard.detected:
                shard.detected = True
                shard.detected_time = now
                self.stats.detections += 1
                probe.event("fleet.crash_detected", shard=shard.name,
                            at_s=round(now, 6))
                self.scheduler.after(
                    FAILOVER_DELAY_S,
                    lambda when, shard=shard: self._migrate(shard, when),
                    label=f"migrate-{shard.name}")
                self.scheduler.after(
                    RESTART_DELAY_S,
                    lambda when, shard=shard: self._restart(shard, when),
                    label=f"restart-{shard.name}")
        return beat

    # -- failover ------------------------------------------------------------

    def _migrate(self, crashed: _Shard, now: float) -> None:
        survivors = [name for name in self.alive_shards()]
        if not survivors:
            # Nobody to migrate onto yet; try again next heartbeat.
            self.stats.migration_deferrals += 1
            self.scheduler.after(
                HEARTBEAT_INTERVAL_S,
                lambda when, shard=crashed: self._migrate(shard, when),
                label=f"migrate-retry-{crashed.name}")
            return
        recovered, _torn = crashed.journal.recover()
        orphans = sorted(sid for sid, owner in self.placement.items()
                         if owner == crashed.name)
        with probe.span("fleet.failover", shard=crashed.name,
                        sessions=len(orphans)) as span:
            for session_id in orphans:
                target = self._by_name[self.ring.owner(
                    session_id, survivors)]
                self._migrate_session(session_id, crashed, target,
                                      recovered.get(session_id), now)
            if span is not None:
                span.set(warm=self.stats.migrations_warm,
                         shed=self.stats.shed_recovering)
        # The dead shard's in-memory sessions are gone; its journal no
        # longer owns the migrated sessions either.
        crashed.runtime.sessions.clear()
        for session_id in orphans:
            crashed.journal.forget(session_id)

    def _session_context(self, session_id: str, snapshot) -> TraceContext:
        """The journey context for a migrating session: a *warm*
        restore reads it from the durable checkpoint (the propagation
        path a real fleet would use — supervisor memory dies with the
        supervisor); the cold tiers fall back to fleet memory, the way
        they fall back to the shared ticket store."""
        if snapshot is not None and getattr(snapshot, "trace_ctx", b""):
            try:
                return TraceContext.from_bytes(snapshot.trace_ctx)
            except ValueError:
                pass
        return self.trace_contexts[session_id]

    def _migrate_session(self, session_id: str, crashed: _Shard,
                         target: _Shard, snapshot, now: float) -> None:
        channel = self.channels[session_id]
        battery = self.batteries[session_id]
        ctx = self._session_context(session_id, snapshot)
        with probe.span("fleet.recover", shard=target.name,
                        session=session_id, from_shard=crashed.name,
                        crashed_at_s=round(crashed.crash_time, 6),
                        detected_at_s=round(crashed.detected_time, 6)
                        ) as span:
            if span is not None:
                attach(span, ctx)
            if snapshot is not None:
                # Warm: rebuild from the durable checkpoint,
                # leapfrogging any reply sequence the dead shard may
                # have consumed after its last durable frame.
                self._black_hole_inbound(session_id, channel)
                conn = restore_connection(
                    snapshot, channel.endpoint_b(),
                    sequence_skip=SEQUENCE_SKIP)
                target.runtime.adopt_session(session_id, conn, battery)
                self.stats.migrations_warm += 1
                self.stats.checkpoints_restored += 1
                path = "warm"
            else:
                path = self._cold_recover(session_id, target, channel,
                                          battery)
            self.placement[session_id] = target.name
            moved = ctx.with_baggage(shard=target.name)
            self.trace_contexts[session_id] = moved
            self._ctx_bytes[session_id] = moved.to_bytes()
            self.stats.sessions_migrated += 1
            self.stats.recovery_latencies.append(now - crashed.crash_time)
            if span is not None:
                span.set(tier=path,
                         recovery_s=round(now - crashed.crash_time, 6))
            probe.event("fleet.session_migrated", session=session_id,
                        from_shard=crashed.name, to_shard=target.name,
                        path=path)
            # Everything the handset is still waiting on was lost with
            # the shard: answer each with a structured recovering shed
            # (charged like any reply) instead of leaving silence.
            pending = len(self.unanswered[session_id])
            for _ in range(pending):
                self.stats.shed_recovering += 1
                target.runtime.send_control_reply(
                    session_id,
                    busy_reply("recovering",
                               retry_after_s=FAILOVER_DELAY_S),
                    shed_reason="recovering")
            self._checkpoint(session_id)

    def _black_hole_inbound(self, session_id: str,
                            channel: DuplexChannel) -> None:
        """Discard bearer frames addressed to the dead shard: nobody
        holds the decode context mid-migration, and their requests are
        answered by the recovering shed instead."""
        endpoint = channel.endpoint_b()
        while True:
            try:
                endpoint.receive()
            except ChannelEmpty:
                break
            self.stats.black_holed_frames += 1

    def _flush_old_replies(self, session_id: str) -> None:
        """Deliver replies already in flight on the old bearer before
        the cold path replaces the handset's record keys."""
        conn = self.handsets[session_id]
        while True:
            try:
                payload = conn.receive_next(max_skip=MALFORMED_SKIP)
            except ChannelEmpty:
                break
            self.reply_buffer[session_id].append(payload)
            self.stats.flushed_replies += 1

    def _cold_recover(self, session_id: str, target: _Shard,
                      channel: DuplexChannel,
                      battery: Optional[Battery]) -> str:
        """No durable checkpoint: re-establish via resumption, else a
        full re-handshake.  Both are real protocol runs whose airlink
        bytes are charged to the handset battery."""
        self._flush_old_replies(session_id)
        self._black_hole_inbound(session_id, channel)
        bytes_before = _channel_bytes(channel)
        try:
            client_session, server_session = resume(
                self.client_configs[session_id],
                target.runtime.gateway_config,
                self.client_caches[session_id], self.ticket_cache,
                self.tickets[session_id],
                endpoints=(channel.endpoint_a(), channel.endpoint_b()))
            handset_conn, gateway_conn = _wtls_from_resumed(
                client_session, server_session, channel)
            self._charge_recovery(
                session_id, battery, _channel_bytes(channel) - bytes_before)
            self.stats.migrations_cold_resume += 1
            path = "cold-resume"
        except HandshakeFailure:
            # Ticket evicted/expired somewhere: last resort, a fresh
            # bearer and a full handshake (certificates and all).
            new_channel = DuplexChannel()
            client = self.client_configs[session_id]
            handset_conn, gateway_conn, client_session = wtls_connect_session(
                client, target.runtime.gateway_config, new_channel)
            self.channels[session_id] = new_channel
            self._charge_recovery(
                session_id, battery, _channel_bytes(new_channel))
            # Re-ticket under the fresh master for the next crash.
            self._issue_ticket(session_id, client_session)
            self.stats.migrations_cold_full += 1
            path = "cold-full"
        self.handsets[session_id] = handset_conn
        target.runtime.adopt_session(session_id, gateway_conn, battery)
        return path

    def _charge_recovery(self, session_id: str,
                         battery: Optional[Battery],
                         num_bytes: int) -> None:
        millijoules = self.energy.frame_receive_mj(num_bytes)
        self.stats.recovery_energy_mj += millijoules
        if battery is None:
            return
        try:
            battery.drain_mj(millijoules)
        except BatteryEmpty:
            self.stats.battery_refusals += 1

    # -- restart -------------------------------------------------------------

    def _restart(self, shard: _Shard, now: float) -> None:
        fresh = self._build_shard(shard.index,
                                  restart_epoch=shard.crash_count)
        # The answer ledger outlives the runtime: one per shard life.
        fresh.runtime.stats = shard.runtime.stats
        shard.runtime = fresh.runtime
        shard.restarts += 1
        shard.journal.reset()
        shard.alive = True
        shard.detected = False
        shard.misses = 0
        self.stats.restarts += 1
        # A restart is a natural GC epoch for the shared ticket store:
        # tickets idle across ``ticket_generation_limit`` restarts age
        # out instead of accumulating forever.
        self.ticket_cache.rotate()
        probe.event("fleet.restart", shard=shard.name, at_s=round(now, 6))

    # -- the run loop --------------------------------------------------------

    def quiescent(self) -> bool:
        """Nothing left to do: every request answered, every shard
        live, no one-shot control events pending, all runtimes idle."""
        if any(self.unanswered.get(sid) for sid in self.unanswered):
            return False
        if not all(shard.alive for shard in self.shards):
            return False
        if self.scheduler.pending_oneshot() > 0:
            return False
        return all(shard.next_event_time() is None for shard in self.shards)

    def run(self) -> FleetStats:
        """Drive the fleet until quiescent; cancels the watchdogs."""
        self.scheduler.run(stop=self.quiescent)
        for shard in self.shards:
            if shard.alive:
                shard.runtime.flush_all_replies()
            if shard.heartbeat is not None:
                shard.heartbeat.cancel()
        return self.stats

    # -- roll-ups ------------------------------------------------------------

    def checkpoints_written(self) -> int:
        """Checkpoint frames durably appended across all journals."""
        return sum(shard.journal.checkpoints_written
                   for shard in self.shards)

    def journal_evictions(self) -> int:
        """Journal index evictions across all shards."""
        return sum(shard.journal.evictions for shard in self.shards)

    def journal_torn_records(self) -> int:
        """Torn frames detected during recovery across all shards."""
        return sum(shard.journal.torn_records for shard in self.shards)

    def runtime_totals(self) -> Dict[str, float]:
        """The shards' answer ledgers summed (each ledger spans its
        shard's restarts)."""
        totals: Dict[str, float] = {
            "submitted": 0, "admitted": 0, "served": 0, "degraded": 0,
            "shed": 0, "shed_malformed": 0, "malformed_discarded": 0,
            "battery_refusals": 0, "energy_mj": 0.0,
        }
        for shard in self.shards:
            for key in totals:
                totals[key] += getattr(shard.runtime.stats, key)
        totals["energy_mj"] = round(totals["energy_mj"], 9)
        return totals

    def collect_replies(self, session_id: str) -> List[bytes]:
        """Every reply the handset can see: flushed-at-migration ones
        plus whatever is pending on the current bearer."""
        replies = list(self.reply_buffer[session_id])
        self.reply_buffer[session_id] = []
        conn = self.handsets[session_id]
        while True:
            try:
                replies.append(conn.receive_next(max_skip=MALFORMED_SKIP))
            except ChannelEmpty:
                break
        return replies


# -- WTLS plumbing -----------------------------------------------------------


def _channel_bytes(channel: DuplexChannel) -> int:
    return sum(len(frame) for _, frame in channel.log)


def _wtls_from_resumed(client_session: Session, server_session: Session,
                       channel: DuplexChannel
                       ) -> Tuple[WTLSConnection, WTLSConnection]:
    """Fresh WTLS record keys after an abbreviated failover resume.

    Deriving from the raw master would reproduce the *original*
    connection's keys — and with them every sequence number the
    handset has already seen.  Salting with the resume transcript
    digest (nonce-bound, identical on both sides) yields keys unique
    to this recovery, so both directions restart at sequence zero
    without any replay overlap.
    """
    suite = client_session.suite
    failover_master = prf(
        client_session.master, b"wtls failover",
        client_session.transcript_digest, 48)
    check = prf(
        server_session.master, b"wtls failover",
        server_session.transcript_digest, 48)
    if failover_master != check:
        raise HandshakeFailure("failover key derivation diverged")
    return connection_pair(suite, _rederive(failover_master, suite),
                           channel.endpoint_a(), channel.endpoint_b())
