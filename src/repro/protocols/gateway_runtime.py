"""Overload-resilient multi-session WAP gateway runtime.

Every request that crosses the WAP gateway goes through this module.
:class:`GatewayRuntime` is the gateway: it holds the handset WTLS
sessions, the origin registry, the lazily opened wired TLS legs and the
WAP-gap plaintext log, and it serves every request.  It is the gateway
*under load*: the operating condition §2 assumes when it calls
the gateway "trusted infrastructure" serving a handset population, and
the DoS posture of §3.2 applied one layer up from the handshake cookies
of :mod:`repro.protocols.dos`.

:class:`GatewayRuntime` multiplexes N concurrent handset WTLS sessions
over the :class:`~repro.protocols.reliable.VirtualClock` discrete-event
scheduler and guards the proxy path with three mechanisms:

* **token-bucket admission + a bounded queue** — arrivals beyond the
  sustained rate or the queue bound are *shed* with a structured
  ``GW-BUSY:`` rejection (reason + retry-after hint) instead of
  growing unbounded state: the memory/CPU analogue of the stateless
  cookie defence;
* **per-request virtual-time deadlines** — a request whose service
  cannot start within :data:`DEADLINE_S` of its arrival is answered
  ``GW-BUSY: deadline`` rather than occupying the server after the
  handset gave up;
* **a closed → open → half-open circuit breaker per origin** —
  :data:`BREAKER_FAILURE_THRESHOLD` consecutive wired-leg failures open
  the breaker and subsequent requests fast-fail degraded (no origin
  traffic at all); after :data:`BREAKER_RESET_S` one half-open probe
  decides between closing it and re-opening.

Every request therefore gets exactly one of three answers — real,
``GW-DEGRADED:`` or ``GW-BUSY:`` — and with no faults injected and no
overload every answer is the origin handler's reply to the request.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from collections import deque

from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery, BatteryEmpty
from ..hardware.energy import EnergyModel
from ..observability import probe
from .alerts import BadRecordMAC, DecodeError, ProtocolAlert, ReplayError
from .certificates import CertificateAuthority
from .handshake import ClientConfig, ServerConfig
from .reliable import VirtualClock
from .tls import SecureConnection, connect
from .transport import ChannelClosed, ChannelEmpty, DuplexChannel
from .wap import (DEGRADED_PREFIX, GATEWAY_NAME, ORIGIN_NAME, HandlerFailure,
                  OriginServer)
from .wtls import WTLSConnection, wtls_connect

BUSY_PREFIX = b"GW-BUSY:"

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: A request must *start* service within this many virtual seconds of
#: its arrival, or it is answered ``GW-BUSY: reason=deadline``.
DEADLINE_S = 4.0
#: Damaged records one receive skips before it answers ``malformed``.
MALFORMED_SKIP = 16
#: Consecutive wired-leg failures that open an origin's breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: Virtual seconds an open breaker cools before its half-open probe.
BREAKER_RESET_S = 5.0


def busy_reply(reason: str, retry_after_s: Optional[float] = None) -> bytes:
    """Structured load-shed rejection: machine-parseable reason and an
    optional retry-after hint in virtual seconds."""
    reply = BUSY_PREFIX + b" reason=" + reason.encode()
    if retry_after_s is not None:
        reply += f" retry-after={retry_after_s:.3f}".encode()
    return reply


def classify_reply(reply: bytes) -> str:
    """One of ``served`` / ``degraded`` / ``shed`` for a runtime reply."""
    if reply.startswith(BUSY_PREFIX):
        return "shed"
    if reply.startswith(DEGRADED_PREFIX):
        return "degraded"
    return "served"


def classify_shed_reason(reply: bytes) -> Optional[str]:
    """The ``reason=`` token of a ``GW-BUSY:`` reply, else ``None``."""
    if not reply.startswith(BUSY_PREFIX):
        return None
    for token in reply.decode("ascii", "replace").split():
        if token.startswith("reason="):
            return token.split("=", 1)[1]
    return "unknown"


class CircuitBreaker:
    """Per-origin wired-leg health gate (closed → open → half-open).

    After :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures the
    gateway stops hammering the origin (and stops burning a service
    slot per doomed attempt) for :data:`BREAKER_RESET_S`, then risks one
    half-open probe.
    """

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.transitions: List[Tuple[float, str, str]] = []
        self.fast_fails = 0
        # Half-open admits exactly ONE probe: concurrent sessions racing
        # the slot fast-fail until the in-flight probe resolves, so a
        # sick origin sees one trial request, not a thundering herd.
        self._probe_in_flight = False

    def _transition(self, now: float, to: str) -> None:
        self.transitions.append((now, self.state, to))
        probe.event("gateway.breaker", origin=self.origin,
                    from_state=self.state, to_state=to)
        self.state = to

    def allow(self, now: float) -> bool:
        """Whether an attempt may touch the origin right now."""
        if self.state == OPEN:
            if now - self.opened_at >= BREAKER_RESET_S:
                self._transition(now, HALF_OPEN)
                self._probe_in_flight = True
            else:
                self.fast_fails += 1
                return False
        elif self.state == HALF_OPEN:
            if self._probe_in_flight:
                # Someone else holds the single probe slot.
                self.fast_fails += 1
                return False
            self._probe_in_flight = True
        return True

    def record_success(self, now: float) -> None:
        """A wired-leg exchange succeeded."""
        self._probe_in_flight = False
        if self.state != CLOSED:
            self._transition(now, CLOSED)
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A wired-leg exchange failed."""
        self._probe_in_flight = False
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
                self.state == CLOSED and self.consecutive_failures
                >= BREAKER_FAILURE_THRESHOLD):
            self._transition(now, OPEN)
        if self.state == OPEN:
            self.opened_at = now

    def state_history(self) -> List[str]:
        """States entered, in order (initial CLOSED implied)."""
        return [to for _, _, to in self.transitions]


class TokenBucket:
    """Deterministic token-bucket admission on virtual time."""

    def __init__(self, capacity: float, refill_per_s: float) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be at least 1")
        if refill_per_s <= 0:
            raise ValueError("refill rate must be positive")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.tokens = float(capacity)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last) * self.refill_per_s)
            self._last = now

    def try_take(self, now: float) -> bool:
        """Consume one token if available."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def seconds_until_token(self, now: float) -> float:
        """Virtual seconds until one token will be available."""
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.refill_per_s


@dataclass(frozen=True)
class RuntimeConfig:
    """Gateway runtime tunables."""

    queue_limit: int = 32           # bounded admission queue depth
    bucket_capacity: float = 16.0   # admission burst budget
    bucket_refill_per_s: float = 8.0  # sustained admission rate (req/s)
    service_time_s: float = 0.05    # virtual service time per request
    reply_batch: int = 1            # replies coalesced per WTLS batch

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue limit must be at least 1")
        if self.service_time_s < 0:
            raise ValueError("service time cannot be negative")
        if self.reply_batch < 1:
            raise ValueError("reply batch must be at least 1")


@dataclass
class RuntimeStats:
    """The runtime's answer ledger: every request lands in exactly one
    of served / degraded / shed, plus the supporting counters."""

    submitted: int = 0
    admitted: int = 0
    served: int = 0
    degraded: int = 0
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_malformed: int = 0
    malformed_discarded: int = 0
    breaker_fast_fails: int = 0
    wired_failures: int = 0
    handler_failures: int = 0
    battery_refusals: int = 0
    energy_mj: float = 0.0
    latencies: List[float] = field(default_factory=list)
    # Radio energy spent *answering* shed traffic, keyed by shed reason:
    # attacker-induced shedding costs real battery (the reply crosses
    # the airlink) and must show up in attribution, not read as free.
    shed_energy_mj: Dict[str, float] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        """All load-shed answers."""
        return (self.shed_rate_limited + self.shed_queue_full
                + self.shed_deadline + self.shed_malformed)

    @property
    def answered(self) -> int:
        """Total requests answered one way or another."""
        return self.served + self.degraded + self.shed

    def p95_latency_s(self) -> float:
        """p95 virtual-time latency of served+degraded requests, via
        the shared fixed-bucket interpolation estimator."""
        from ..observability.metrics import quantile_of
        return quantile_of(self.latencies, 0.95)

    def energy_per_served_mj(self) -> float:
        """Radio energy per successfully served request."""
        return self.energy_mj / self.served if self.served else 0.0


@dataclass
class _Session:
    """One attached handset's gateway-side state."""

    conn: WTLSConnection
    battery: Optional[Battery] = None
    outbox: List[bytes] = field(default_factory=list)
    session_id: str = ""


@dataclass(order=True)
class _Arrival:
    """One submitted request, ordered by (time, sequence)."""

    time: float
    seq: int
    session_id: str = field(compare=False)
    destination: str = field(compare=False)


@dataclass
class _Pending:
    """One admitted request waiting for the proxy worker."""

    request: bytes
    session_id: str
    destination: str
    arrival: float
    deadline: float


class GatewayRuntime:
    """The WAP gateway: N concurrent handset WTLS sessions over one
    discrete-event loop, proxied to the registered origins over TLS.

    The runtime owns the virtual clock and a single proxy worker (the
    2003-era gateway is one box); ``add_ticker`` hooks (e.g. an
    :class:`~repro.core.supervisor.ApplianceSupervisor` ``poll``) run
    whenever virtual time advances, putting device faults and gateway
    load on one timeline.

    Handsets handshake against ``gateway_config``.  The wired TLS leg
    to an origin opens on its first request, as a client of ``ca``
    keyed from ``rng``, and is dropped when it fails.  The gateway is
    *trusted infrastructure* in the WAP model: ``plaintext_log`` holds
    every request and reply it decrypted, which makes that trust
    explicit and measurable.
    """

    def __init__(self, ca: CertificateAuthority, rng: DeterministicDRBG,
                 gateway_config: ServerConfig,
                 origins: Sequence[OriginServer],
                 config: Optional[RuntimeConfig] = None,
                 clock: Optional[VirtualClock] = None) -> None:
        self.ca = ca
        self.rng = rng
        self.gateway_config = gateway_config
        self.config = config or RuntimeConfig()
        self.clock = clock or VirtualClock()
        self.energy = EnergyModel()
        self.plaintext_log: List[bytes] = []
        self.stats = RuntimeStats()
        self._origins = {origin.name: origin for origin in origins}
        self._wired_legs: Dict[
            str, Tuple[SecureConnection, SecureConnection]] = {}
        self.sessions: Dict[str, _Session] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._bucket = TokenBucket(self.config.bucket_capacity,
                                   self.config.bucket_refill_per_s)
        self._arrivals: List[_Arrival] = []
        self._queue: Deque[_Pending] = deque()
        self._server_free_at = 0.0
        self._seq = 0
        self._tickers: List[Callable[[float], None]] = []
        self._fault_rates: Dict[str, Tuple[float, DeterministicDRBG]] = {}
        #: Called with ``(session_id, payload)`` for every answer the
        #: runtime sends (served, degraded, or shed).  A supervisor one
        #: layer up — the sharded fleet — uses it to track which
        #: submitted requests have been answered without reading the
        #: shard's internals (which vanish when the shard crashes).
        self.answer_hook: Optional[Callable[[str, bytes], None]] = None
        #: Set by the sharded fleet so this runtime's telemetry spans
        #: carry a ``shard`` attribute — the stream key the fleet
        #: trace store partitions on.  ``None`` (standalone runtime)
        #: adds nothing.
        self.shard_label: Optional[str] = None

    # -- session management --------------------------------------------------

    def adopt_session(self, session_id: str, gateway_side: WTLSConnection,
                      battery: Optional[Battery] = None) -> None:
        """Serve an established WTLS session.  ``gateway_side`` is the
        gateway's end of a handshake against :attr:`gateway_config`
        (:func:`~repro.protocols.wtls.wtls_connect`), or a session a
        fleet shard restored or migrated."""
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already attached")
        self.sessions[session_id] = _Session(
            gateway_side, battery, session_id=session_id)

    # -- fault wiring --------------------------------------------------------

    def breaker_for(self, destination: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one origin."""
        if destination not in self.breakers:
            self.breakers[destination] = CircuitBreaker(destination)
        return self.breakers[destination]

    def add_ticker(self, ticker: Callable[[float], None]) -> None:
        """Register a hook called with ``clock.now`` as time advances."""
        self._tickers.append(ticker)

    def set_fault_rate(self, destination: str, rate: float,
                       seed: int = 0) -> None:
        """Seeded i.i.d. wired-leg failure probability per attempt.

        A rate of 1.0 is an outage: every attempt fails as a link reset
        until a later call (e.g. from an :meth:`add_ticker` hook) sets
        the rate back to 0."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be a probability")
        self._fault_rates[destination] = (
            rate, DeterministicDRBG(("gw-fault", destination, seed).__repr__()))

    # -- the event loop ------------------------------------------------------

    def submit(self, session_id: str, destination: str,
               arrival_offset_s: float = 0.0) -> None:
        """Register one pending request for a session.

        The handset must already have sent the request over its WTLS
        connection; the runtime decrypts it at the arrival time (that is
        when the gateway touches it — the WAP gap happens per request
        whatever the admission verdict).
        """
        if session_id not in self.sessions:
            raise KeyError(f"unknown session {session_id!r}")
        if arrival_offset_s < 0:
            raise ValueError("arrival offset cannot be negative")
        heapq.heappush(self._arrivals, _Arrival(
            time=self.clock.now + arrival_offset_s, seq=self._seq,
            session_id=session_id, destination=destination))
        self._seq += 1
        self.stats.submitted += 1

    def next_event_time(self) -> Optional[float]:
        """Virtual time of this runtime's next internal event, or
        ``None`` when it has nothing left to do.

        A serve whose start time already passed (the server went idle
        in the past) is due *now*; the fleet scheduler polls this to
        interleave many shards on one shared clock.
        """
        next_arrival = (self._arrivals[0].time
                        if self._arrivals else None)
        if self._queue:
            head_start = max(self._server_free_at, self._queue[0].arrival)
            due = max(head_start, self.clock.now)
            if next_arrival is None:
                return due
            return min(due, max(next_arrival, self.clock.now))
        if next_arrival is None:
            return None
        return max(next_arrival, self.clock.now)

    def step(self) -> bool:
        """Process exactly one event (one serve or one admission).

        Returns ``False`` when idle.  The serve-vs-admit choice is the
        same as the historical monolithic loop: serve the queue head
        when it can start no later than the next arrival (ties serve
        first), otherwise admit the next arrival.
        """
        if not (self._arrivals or self._queue):
            return False
        next_arrival = (self._arrivals[0].time
                        if self._arrivals else float("inf"))
        if self._queue:
            head_start = max(self._server_free_at,
                             self._queue[0].arrival)
            if head_start <= next_arrival:
                self._serve_one()
                return True
        arrival = heapq.heappop(self._arrivals)
        self._advance(arrival.time)
        self._admit(arrival)
        return True

    def run(self) -> RuntimeStats:
        """Drive the event loop until every request is answered."""
        while self.step():
            pass
        self.flush_all_replies()
        return self.stats

    def flush_all_replies(self) -> None:
        """Ship every session's batched outbox (end-of-run drain)."""
        for session in self.sessions.values():
            self._flush_replies(session)

    def _advance(self, when: float) -> None:
        if when > self.clock.now:
            self.clock.advance_to(when)
        for ticker in self._tickers:
            ticker(self.clock.now)

    # -- admission -----------------------------------------------------------

    def _admit(self, arrival: _Arrival) -> None:
        telemetry = probe.active
        if telemetry is None:
            self._admit_inner(arrival)
            return
        attrs = {"session": arrival.session_id,
                 "origin": arrival.destination}
        if self.shard_label is not None:
            attrs["shard"] = self.shard_label
        with telemetry.span("gateway.admit", **attrs) as span:
            span.set(verdict=self._admit_inner(arrival))

    def _admit_inner(self, arrival: _Arrival) -> str:
        session = self.sessions[arrival.session_id]
        now = self.clock.now
        discarded_before = session.conn.discarded
        try:
            # WTLS decrypt (the gap), skipping records that fail to
            # open — injected garbage, replays, corrupted frames.
            request = session.conn.receive_next(max_skip=MALFORMED_SKIP)
        except (BadRecordMAC, DecodeError, ReplayError, ChannelEmpty):
            # Nothing valid to read: the pending frames were all
            # malformed (a wire-injection flood) or the link ran dry.
            # Degrade gracefully with a structured shed, never a crash.
            self.stats.malformed_discarded += (
                session.conn.discarded - discarded_before)
            self.stats.shed_malformed += 1
            self._reply(session, busy_reply("malformed"),
                        shed_reason="malformed")
            return "malformed"
        self.stats.malformed_discarded += (
            session.conn.discarded - discarded_before)
        self.plaintext_log.append(request)
        self._charge(session, len(request))
        if not self._bucket.try_take(now):
            self.stats.shed_rate_limited += 1
            self._reply(session, busy_reply(
                "rate-limited", self._bucket.seconds_until_token(now)),
                shed_reason="rate-limited")
            return "rate-limited"
        if len(self._queue) >= self.config.queue_limit:
            self.stats.shed_queue_full += 1
            self._reply(session, busy_reply(
                "queue-full",
                self.config.service_time_s * len(self._queue)),
                shed_reason="queue-full")
            return "queue-full"
        self.stats.admitted += 1
        # Latency and deadline run from when the request arrived, not
        # from when a busy server got round to admitting it.
        self._queue.append(_Pending(
            request=request, session_id=arrival.session_id,
            destination=arrival.destination, arrival=arrival.time,
            deadline=arrival.time + DEADLINE_S))
        return "admitted"

    # -- service -------------------------------------------------------------

    def _serve_one(self) -> None:
        telemetry = probe.active
        if telemetry is None:
            self._serve_one_inner()
            return
        attrs = ({} if self.shard_label is None
                 else {"shard": self.shard_label})
        with telemetry.span("gateway.serve", **attrs) as span:
            session_id, outcome = self._serve_one_inner()
            span.set(session=session_id, outcome=outcome)

    def _serve_one_inner(self) -> Tuple[str, str]:
        pending = self._queue.popleft()
        session = self.sessions[pending.session_id]
        start = max(self._server_free_at, pending.arrival)
        self._advance(start)
        if start > pending.deadline:
            # Too stale to be worth origin work: answer shed, zero
            # service time (the check is bookkeeping, not proxying).
            self.stats.shed_deadline += 1
            self._reply(session, busy_reply("deadline"),
                        shed_reason="deadline")
            return pending.session_id, "shed-deadline"
        finish = start + self.config.service_time_s
        self._server_free_at = finish
        self._advance(finish)
        reply = self._proxy(pending)
        self._reply(session, reply)
        self.stats.latencies.append(finish - pending.arrival)
        outcome = ("degraded" if reply.startswith(DEGRADED_PREFIX)
                   else "served")
        return pending.session_id, outcome

    def _proxy(self, pending: _Pending) -> bytes:
        destination = pending.destination
        now = self.clock.now
        if destination not in self._origins:
            self.stats.degraded += 1
            return DEGRADED_PREFIX + b" origin unavailable (KeyError)"
        breaker = self.breaker_for(destination)
        if not breaker.allow(now):
            self.stats.breaker_fast_fails += 1
            self.stats.degraded += 1
            return DEGRADED_PREFIX + b" origin circuit open"
        try:
            self._maybe_inject_fault(destination, now)
            reply = self._wired_exchange(destination, pending.request)
        except HandlerFailure:
            # Origin reachable, application failed: not a breaker event.
            breaker.record_success(now)
            self.stats.handler_failures += 1
            self.stats.degraded += 1
            return (DEGRADED_PREFIX
                    + b" origin handler error (HandlerFailure)")
        except (ProtocolAlert, ChannelClosed) as exc:
            breaker.record_failure(now)
            self.stats.wired_failures += 1
            # Forget the (possibly broken) leg; the next request reopens it.
            self._wired_legs.pop(destination, None)
            self.stats.degraded += 1
            return (DEGRADED_PREFIX + b" origin unavailable ("
                    + type(exc).__name__.encode() + b")")
        breaker.record_success(now)
        self.stats.served += 1
        return reply

    def _wired_exchange(self, destination: str, request: bytes) -> bytes:
        """Re-encrypt ``request`` toward ``destination`` over TLS and
        return the origin's reply, inside a ``gateway.wired-leg`` span."""
        telemetry = probe.active
        if telemetry is None:
            return self._wired_exchange_inner(destination, request)
        with telemetry.span("gateway.wired-leg", origin=destination,
                            n=len(request)) as span:
            try:
                return self._wired_exchange_inner(destination, request)
            except Exception as exc:
                span.set(error=type(exc).__name__)
                raise

    def _wired_exchange_inner(self, destination: str, request: bytes) -> bytes:
        gw_conn, origin_conn = self._wired_leg(destination)
        gw_conn.send(request)                     # TLS re-encrypt
        inbound = origin_conn.receive()
        try:
            response = self._origins[destination].handler(inbound)
        except Exception as exc:
            # Application failure, not transport: the TLS legs are fine,
            # so keep them cached and let the caller answer degraded.
            raise HandlerFailure(
                f"origin {destination!r} handler raised "
                f"{type(exc).__name__}: {exc}") from exc
        origin_conn.send(response)
        return gw_conn.receive()

    def _wired_leg(self, name: str
                   ) -> Tuple[SecureConnection, SecureConnection]:
        """The ``(gateway side, origin side)`` TLS pair to origin
        ``name``, opened on first use."""
        if name not in self._wired_legs:
            client_cfg = ClientConfig(
                rng=DeterministicDRBG(
                    ("gw-client", name, self.rng.getrandbits(32)).__repr__()
                ),
                ca=self.ca,
                expected_server=name,
            )
            self._wired_legs[name] = connect(
                client_cfg, self._origins[name].config)
        return self._wired_legs[name]

    def _maybe_inject_fault(self, destination: str, now: float) -> None:
        fault = self._fault_rates.get(destination)
        if fault is not None:
            rate, drbg = fault
            if rate > 0.0 and drbg.random() < rate:
                raise ChannelClosed(
                    f"origin {destination} injected wired-leg fault "
                    f"at t={now:.3f}s")

    # -- reply path ----------------------------------------------------------

    def send_control_reply(self, session_id: str, payload: bytes,
                           shed_reason: Optional[str] = None) -> None:
        """Answer a session outside the serve loop.

        The supervisor path: a fleet migrating sessions off a dead
        shard answers the orphaned requests (``GW-BUSY:
        reason=recovering``) through the adopting runtime, with the
        same logging, energy accounting, and answer-hook semantics as
        a scheduled reply.
        """
        self._reply(self.sessions[session_id], payload,
                    shed_reason=shed_reason)

    def _reply(self, session: _Session, payload: bytes,
               shed_reason: Optional[str] = None) -> None:
        """Answer one request, coalescing when configured.

        With ``reply_batch > 1`` replies queue in the session's outbox
        and ship as one batched WTLS transmission
        (:meth:`~repro.protocols.wtls.WTLSConnection.send_batch`) every
        ``reply_batch`` replies (and at the end of :meth:`run`); the
        handset reads them with ``receive_batch``.  Logging and energy
        accounting happen at answer time either way, so the stats
        ledger is identical to the unbatched configuration.

        ``shed_reason`` marks a ``GW-BUSY:`` answer: its airlink energy
        is additionally booked per reason in ``stats.shed_energy_mj``,
        so shedding caused by an attack is visibly charged rather than
        silently folded into the aggregate.
        """
        self.plaintext_log.append(payload)  # the gap again
        if self.config.reply_batch <= 1:
            session.conn.send(payload)
        else:
            session.outbox.append(payload)
            if len(session.outbox) >= self.config.reply_batch:
                self._flush_replies(session)
        millijoules = self._charge(session, len(payload))
        if shed_reason is not None:
            self.stats.shed_energy_mj[shed_reason] = (
                self.stats.shed_energy_mj.get(shed_reason, 0.0)
                + millijoules)
        if self.answer_hook is not None:
            self.answer_hook(session.session_id, payload)

    def _flush_replies(self, session: _Session) -> None:
        if session.outbox:
            session.conn.send_batch(session.outbox)
            session.outbox = []

    def _charge(self, session: _Session, num_bytes: int) -> float:
        """Account handset radio energy (rx of a reply / tx of a request
        are symmetric enough for the ledger: one airlink crossing).
        Returns the charged millijoules."""
        millijoules = self.energy.frame_receive_mj(num_bytes)
        self.stats.energy_mj += millijoules
        if session.battery is None:
            return millijoules
        try:
            session.battery.drain_mj(millijoules)
        except BatteryEmpty:
            # The handset's problem (its supervisor handles brownout);
            # the gateway only records that the charge was refused.
            self.stats.battery_refusals += 1
        return millijoules


def build_gateway_runtime_world(
        sessions: int = 8, seed: int = 0,
        handler: Optional[Callable[[bytes], bytes]] = None,
        config: Optional[RuntimeConfig] = None,
        batteries: Optional[Dict[str, Battery]] = None,
        clock: Optional[VirtualClock] = None,
        channel_factory: Optional[Callable[[str], DuplexChannel]] = None,
) -> Tuple[GatewayRuntime, Dict[str, WTLSConnection], CertificateAuthority]:
    """A full N-handset world: a CA, the gateway runtime certified as
    :data:`~repro.protocols.wap.GATEWAY_NAME` with the
    :data:`~repro.protocols.wap.ORIGIN_NAME` origin behind it, and
    ``sessions`` handsets named ``handset-00`` ... whose WTLS sessions
    the runtime serves; every key and RNG derives from ``seed``.
    Returns ``(runtime, {session_id: handset_conn}, ca)``.

    ``channel_factory`` lets a session ride a caller-owned link — e.g. a
    :class:`~repro.protocols.faults.FaultyChannel` an adversary can
    inject frames into (the handset writes ``a->b``, so injected
    attacker frames travel toward the gateway on that direction).
    """
    def rng(label: str) -> DeterministicDRBG:
        return DeterministicDRBG((label, seed).__repr__())

    ca = CertificateAuthority("WAP-CA", rng("ca"))
    gw_key, gw_cert = ca.issue(GATEWAY_NAME, rng("gw"))
    origin_key, origin_cert = ca.issue(ORIGIN_NAME, rng("origin"))
    origin = OriginServer(
        name=ORIGIN_NAME,
        handler=handler or (lambda request: b"OK:" + request),
        config=ServerConfig(rng=rng("origin-rng"), certificate=origin_cert,
                            private_key=origin_key))
    runtime = GatewayRuntime(
        ca, rng("gw-rng"),
        ServerConfig(rng=rng("gw-srv-rng"), certificate=gw_cert,
                     private_key=gw_key),
        [origin], config=config, clock=clock)
    handsets: Dict[str, WTLSConnection] = {}
    batteries = batteries or {}
    for index in range(sessions):
        session_id = f"handset-{index:02d}"
        client = ClientConfig(
            rng=DeterministicDRBG((session_id, seed).__repr__()),
            ca=ca, expected_server=GATEWAY_NAME)
        handsets[session_id], gateway_side = wtls_connect(
            client, runtime.gateway_config,
            channel=(channel_factory(session_id)
                     if channel_factory is not None else None))
        runtime.adopt_session(session_id, gateway_side,
                              batteries.get(session_id))
    return runtime, handsets, ca


def request_rounds(session_ids: Sequence[str], requests_per_session: int,
                   interarrival_s: float
                   ) -> Iterator[Tuple[float, str, bytes]]:
    """The chaos traffic shape as ``(when, session_id, payload)``:
    ``requests_per_session`` rounds in which every session, in order,
    sends ``req-<session>-<round>``, staggered evenly across the
    ``interarrival_s`` period."""
    sessions = len(session_ids)
    for round_index in range(requests_per_session):
        for slot, session_id in enumerate(session_ids):
            yield (round_index * interarrival_s
                   + slot * interarrival_s / max(1, sessions),
                   session_id, f"req-{session_id}-{round_index}".encode())


def submit_rounds(runtime: GatewayRuntime,
                  handsets: Dict[str, WTLSConnection], origin: str,
                  requests_per_session: int, interarrival_s: float) -> None:
    """Queue :func:`request_rounds` over the sorted handsets on
    ``runtime``."""
    for when, session_id, payload in request_rounds(
            sorted(handsets), requests_per_session, interarrival_s):
        handsets[session_id].send(payload)
        runtime.submit(session_id, origin, arrival_offset_s=when)


class ReplyTally(NamedTuple):
    """What :func:`tally_replies` returns, named as in a scenario result."""

    counts: Dict[str, int]
    per_session_replies: Dict[str, int]
    shed_reasons: Dict[str, int]


def tally_replies(replies: Dict[str, List[bytes]]) -> ReplyTally:
    """Classify ``{session_id: [reply, ...]}``: served / degraded / shed
    totals, replies per session, and shed totals per ``reason=``."""
    counts = {"served": 0, "degraded": 0, "shed": 0}
    per_session: Dict[str, int] = {}
    shed_reasons: Dict[str, int] = {}
    for session_id, session_replies in replies.items():
        per_session[session_id] = len(session_replies)
        for reply in session_replies:
            kind = classify_reply(reply)
            counts[kind] += 1
            if kind == "shed":
                reason = classify_shed_reason(reply)
                shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    return ReplyTally(counts, per_session, shed_reasons)


def drain_replies(runtime: GatewayRuntime,
                  handsets: Dict[str, WTLSConnection]) -> ReplyTally:
    """Read and tally every pending handset reply.

    Raises :class:`RuntimeError` when the runtime left a submitted
    request unanswered — the every-request-answered invariant of every
    gateway chaos run, checked explicitly so ``python -O`` keeps it.
    """
    stats = runtime.stats
    if stats.answered != stats.submitted:
        raise RuntimeError(
            f"a request went unanswered: {stats.answered} answered of "
            f"{stats.submitted} submitted")
    replies: Dict[str, List[bytes]] = {}
    for session_id in sorted(handsets):
        conn = handsets[session_id]
        replies[session_id] = []
        while conn.endpoint.pending():
            replies[session_id].append(conn.receive())
    return tally_replies(replies)
