"""Go-back-N ARQ over a lossy channel, with energy-metered retries.

The reliability sublayer the §2 wireless stacks were always assumed to
sit on: sequence-numbered, CRC-framed data frames, cumulative acks, a
send window, virtual-clock retransmission timers with exponential
backoff and seeded jitter, and a per-frame retry budget after which
the link is declared dead (:class:`RetryBudgetExhausted`).

Every transmission — first copy or retry — is charged to the
:mod:`repro.hardware.energy` model and optionally drained from a
:class:`~repro.hardware.battery.Battery`, so the reliability-vs-battery
tradeoff of §3.3 (each retransmission costs ~21.5 mJ/KB of radio
energy that a sensor-class battery cannot spare) becomes a measurable
quantity instead of a qualitative warning.

Time is a :class:`VirtualClock`: the pair of endpoints forms a closed
discrete-event system, so whichever side is blocked in
:meth:`ReliableEndpoint.receive` advances the clock to the next timer
deadline and lets *both* sides' retransmission timers fire — exactly
the "time passes, the sender's timer expires" semantics of a real
link, without threads.

At a drop probability of zero the layer is transparent: zero
retransmissions, zero timeouts, byte-identical delivery.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Tuple

from ..crypto.crc import crc32
from ..crypto.rng import DeterministicDRBG
from ..hardware.battery import Battery
from ..hardware.energy import EnergyModel
from ..observability import probe
from .transport import ChannelClosed, ChannelEmpty, DuplexChannel

KIND_DATA = 1
KIND_ACK = 2

_HEADER_BYTES = 1 + 4 + 2  # kind | seq | length
_CRC_BYTES = 4

#: Largest payload the frame header's 16-bit length field can carry.
MAX_FRAME_PAYLOAD = (1 << 16) - 1


class FrameTooLarge(ValueError):
    """A payload exceeds the frame length field's 16-bit width.

    Raised at the API boundary instead of letting ``int.to_bytes``
    surface a raw ``OverflowError`` mid-transmit (the same bug class
    the record layer's :class:`~repro.protocols.alerts.RecordOverflow`
    guards against).  Callers batching records over the link must keep
    each batch under :data:`MAX_FRAME_PAYLOAD` bytes.
    """


class RetryBudgetExhausted(ChannelClosed):
    """A frame exceeded its retry budget: the link is declared dead.

    Subclasses :class:`~repro.protocols.transport.ChannelClosed` so the
    layer above treats it exactly like a link reset rather than a
    protocol error.
    """


class FrameDamaged(Exception):
    """Internal: a frame failed its CRC and must be discarded."""


def encode_frame(kind: int, seq: int, payload: bytes = b"") -> bytes:
    """Frame format: kind(1) | seq(4) | len(2) | crc32(4) | payload."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameTooLarge(
            f"frame payload of {len(payload)} bytes exceeds the 16-bit "
            f"length field (max {MAX_FRAME_PAYLOAD} bytes per frame)"
        )
    header = (
        bytes([kind]) + seq.to_bytes(4, "big")
        + len(payload).to_bytes(2, "big")
    )
    crc = crc32(header + payload).to_bytes(_CRC_BYTES, "big")
    return header + crc + payload


def decode_frame(raw: bytes) -> Tuple[int, int, bytes]:
    """Parse and CRC-check one frame -> (kind, seq, payload)."""
    if len(raw) < _HEADER_BYTES + _CRC_BYTES:
        raise FrameDamaged("frame shorter than header")
    header, crc, payload = (
        raw[:_HEADER_BYTES],
        raw[_HEADER_BYTES:_HEADER_BYTES + _CRC_BYTES],
        raw[_HEADER_BYTES + _CRC_BYTES:],
    )
    kind = header[0]
    seq = int.from_bytes(header[1:5], "big")
    length = int.from_bytes(header[5:7], "big")
    if kind not in (KIND_DATA, KIND_ACK):
        raise FrameDamaged(f"unknown frame kind {kind}")
    if len(payload) != length:
        raise FrameDamaged("frame length field mismatch")
    if int.from_bytes(crc, "big") != crc32(header + payload):
        raise FrameDamaged("frame CRC mismatch")
    return kind, seq, payload


class VirtualClock:
    """Monotonic simulated time in (virtual) seconds."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance_to(self, when: float) -> None:
        """Move time forward to ``when`` (never backward)."""
        if when > self.now:
            self.now = when


@dataclass(frozen=True)
class ARQConfig:
    """Tunables of the go-back-N machine."""

    window: int = 8
    base_timeout: float = 1.0       # virtual seconds before first retry
    backoff_factor: float = 2.0     # exponential backoff per attempt
    max_timeout: float = 64.0       # backoff ceiling
    jitter: float = 0.1             # +/- fraction of the timeout, seeded
    retry_budget: int = 10          # retransmissions allowed per frame

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.retry_budget < 1:
            raise ValueError("retry budget must be at least 1")


@dataclass
class ReliableStats:
    """Per-endpoint ledger: traffic, recovery actions, and energy."""

    data_sent: int = 0
    data_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    corrupt_dropped: int = 0
    duplicates_dropped: int = 0
    out_of_order_dropped: int = 0
    energy_tx_mj: float = 0.0
    energy_rx_mj: float = 0.0
    retransmit_energy_mj: float = 0.0

    @property
    def energy_total_mj(self) -> float:
        """All radio energy this endpoint spent."""
        return self.energy_tx_mj + self.energy_rx_mj


@dataclass
class _Pending:
    """One unacknowledged data frame in the send window."""

    frame: bytes
    attempts: int = 0
    deadline: float = 0.0


class ReliableEndpoint:
    """One side's reliable handle; duck-types ``transport.Endpoint``.

    ``send``/``receive``/``pending`` match the raw endpoint API, so the
    handshake and record layers run over ARQ unchanged.
    """

    def __init__(self, link: "ReliableLink", raw, name: str,
                 battery: Optional[Battery] = None) -> None:
        self._link = link
        self._raw = raw
        self.name = name
        self.battery = battery
        self.stats = ReliableStats()
        self._next_seq = 0
        self._window: "OrderedDict[int, _Pending]" = OrderedDict()
        self._recv_next = 0
        self._app: Deque[bytes] = deque()

    # -- public API --------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Queue one payload for reliable, in-order delivery."""
        self._pump_inbound()
        while len(self._window) >= self._link.config.window:
            if not self._link.step_time():
                raise ChannelClosed(
                    f"{self.name}: send window stalled with no timers")
            self._pump_inbound()
        seq = self._next_seq
        self._next_seq += 1
        frame = encode_frame(KIND_DATA, seq, payload)
        self._window[seq] = _Pending(
            frame=frame, attempts=0,
            deadline=self._link.clock.now + self._link.timeout_for(0))
        self.stats.data_sent += 1
        self._transmit(frame, retransmit=False)

    def receive(self) -> bytes:
        """Return the next in-order payload, driving recovery as needed.

        Raises :class:`~repro.protocols.transport.ChannelEmpty` when
        nothing was ever sent (no data, no outstanding timers) and
        :class:`RetryBudgetExhausted` when recovery gives up.
        """
        while True:
            self._pump_inbound()
            if self._app:
                return self._app.popleft()
            if not self._link.step_time():
                raise ChannelEmpty(
                    f"{self.name}: no data pending and no timers outstanding")

    def pending(self) -> int:
        """In-order payloads ready to read right now."""
        self._pump_inbound()
        return len(self._app)

    def flush(self) -> None:
        """Drive the link until every sent frame has been acknowledged."""
        while self._window:
            self._pump_inbound()
            if self._window and not self._link.step_time():
                raise ChannelClosed(
                    f"{self.name}: unacked frames but no timers outstanding")

    @property
    def unacked(self) -> int:
        """Frames sitting in the send window awaiting acknowledgement."""
        return len(self._window)

    # -- internals ---------------------------------------------------------

    def _charge(self, millijoules: float) -> None:
        if self.battery is not None:
            self.battery.drain_mj(millijoules)

    def _transmit(self, frame: bytes, retransmit: bool) -> None:
        mj = self._link.energy.frame_transmit_mj(len(frame))
        self.stats.energy_tx_mj += mj
        if retransmit:
            self.stats.retransmissions += 1
            self.stats.retransmit_energy_mj += mj
        self._charge(mj)
        self._raw.send(frame)

    def _send_ack(self) -> None:
        frame = encode_frame(KIND_ACK, self._recv_next)
        self.stats.acks_sent += 1
        mj = self._link.energy.frame_transmit_mj(len(frame))
        self.stats.energy_tx_mj += mj
        self._charge(mj)
        self._raw.send(frame)

    def _pump_inbound(self) -> int:
        processed = 0
        while True:
            try:
                raw = self._raw.receive()
            except ChannelEmpty:
                return processed
            processed += 1
            # A real close/reset propagates: the recovery layer reconnects.
            mj = self._link.energy.frame_receive_mj(len(raw))
            self.stats.energy_rx_mj += mj
            self._charge(mj)
            try:
                kind, seq, payload = decode_frame(raw)
            except FrameDamaged:
                self.stats.corrupt_dropped += 1
                continue
            if kind == KIND_DATA:
                if seq == self._recv_next:
                    self._app.append(payload)
                    self._recv_next += 1
                    self.stats.data_received += 1
                elif seq < self._recv_next:
                    self.stats.duplicates_dropped += 1
                else:
                    # Go-back-N receiver: discard out-of-order frames;
                    # the cumulative ack below triggers the resend.
                    self.stats.out_of_order_dropped += 1
                self._send_ack()
            else:
                self.stats.acks_received += 1
                while self._window and next(iter(self._window)) < seq:
                    self._window.popitem(last=False)

    def _earliest_deadline(self) -> Optional[float]:
        if not self._window:
            return None
        return next(iter(self._window.values())).deadline

    def _handle_timeouts(self) -> None:
        if not self._window:
            return
        oldest = next(iter(self._window.values()))
        if oldest.deadline > self._link.clock.now:
            return
        # Go-back-N: the single (oldest-frame) timer fired — retransmit
        # the whole window with backed-off deadlines.
        self.stats.timeouts += 1
        with probe.span("arq.retransmit", endpoint=self.name,
                        window=len(self._window)):
            for seq, pending in self._window.items():
                pending.attempts += 1
                if pending.attempts > self._link.config.retry_budget:
                    raise RetryBudgetExhausted(
                        f"{self.name}: frame {seq} exceeded retry budget of "
                        f"{self._link.config.retry_budget}")
                pending.deadline = (
                    self._link.clock.now
                    + self._link.timeout_for(pending.attempts))
                self._transmit(pending.frame, retransmit=True)


class ReliableLink:
    """A pair of :class:`ReliableEndpoint` over one (lossy) channel.

    The link owns the virtual clock, the energy model, and the seeded
    jitter source, and is the scheduler that fires both sides' timers
    when either side waits — the discrete-event core of the lossy-link
    harness.
    """

    def __init__(self, channel: Optional[DuplexChannel] = None,
                 config: Optional[ARQConfig] = None,
                 energy: Optional[EnergyModel] = None,
                 battery_a: Optional[Battery] = None,
                 battery_b: Optional[Battery] = None,
                 seed: int = 0) -> None:
        self.channel = channel or DuplexChannel()
        self.config = config or ARQConfig()
        self.energy = energy or EnergyModel()
        self.clock = VirtualClock()
        self._jitter = DeterministicDRBG(("arq-jitter", seed).__repr__())
        self._a = ReliableEndpoint(
            self, self.channel.endpoint_a(), "arq-a", battery_a)
        self._b = ReliableEndpoint(
            self, self.channel.endpoint_b(), "arq-b", battery_b)

    def endpoint_a(self) -> ReliableEndpoint:
        """The reliable endpoint on side A."""
        return self._a

    def endpoint_b(self) -> ReliableEndpoint:
        """The reliable endpoint on side B."""
        return self._b

    def timeout_for(self, attempts: int) -> float:
        """Backed-off timeout for a frame on its ``attempts``-th retry,
        with seeded jitter so synchronized retry storms decohere."""
        base = min(
            self.config.base_timeout * self.config.backoff_factor ** attempts,
            self.config.max_timeout)
        spread = self.config.jitter * (2.0 * self._jitter.random() - 1.0)
        return base * (1.0 + spread)

    def step_time(self) -> bool:
        """Make link-level progress; returns False when none is possible.

        Models both peers' always-on link layers: first drain any
        frames already in flight (delivering data to app queues and
        generating acks without any time passing); only when the link
        is quiet does virtual time jump to the next retransmission
        deadline and fire both sides' timers.
        """
        progressed = False
        for endpoint in (self._a, self._b):
            if endpoint._pump_inbound() > 0:
                progressed = True
        if progressed:
            return True
        deadlines = [d for d in (self._a._earliest_deadline(),
                                 self._b._earliest_deadline())
                     if d is not None]
        if not deadlines:
            return False
        self.clock.advance_to(min(deadlines))
        for endpoint in (self._a, self._b):
            endpoint._handle_timeouts()
        return True

    @property
    def total_retransmissions(self) -> int:
        """Both directions' retransmission count."""
        return (self._a.stats.retransmissions
                + self._b.stats.retransmissions)

    @property
    def total_timeouts(self) -> int:
        """Both directions' timer expiries."""
        return self._a.stats.timeouts + self._b.stats.timeouts

    @property
    def total_energy_mj(self) -> float:
        """Radio energy spent across both endpoints."""
        return (self._a.stats.energy_total_mj
                + self._b.stats.energy_total_mj)
