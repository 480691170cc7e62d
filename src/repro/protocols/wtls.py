"""WTLS — the WAP transport-layer security profile.

"The WAP protocol stack includes a transport-layer security protocol,
called WTLS, which provides higher layer protocols and applications
with a secure transport service interface" (§2), and "WTLS bears a
close resemblance to the SSL/TLS standards" (§3.1).

The resemblances and the differences are both modelled:

* same handshake grammar and PRF as mini-TLS (we reuse them);
* **datagram-friendly records** — WTLS runs over unreliable wireless
  transports, so every record carries an explicit sequence number and
  the decoder tolerates loss (no implicit counter to desynchronise);
* **truncated MACs** (10 bytes vs 20) and optional **export-weakened
  keys**, reflecting WTLS's constrained-device concessions — which the
  attack literature the paper cites ([19]-[25]) shows is where
  wireless profiles historically gave up security margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..crypto.hmac import HMAC
from ..observability import probe
from . import records_batch
from .alerts import BadRecordMAC, DecodeError, ProtocolAlert, ReplayError
from .ciphersuites import CipherSuite
from .handshake import ClientConfig, ServerConfig, Session, run_handshake
from .kdf import KeyBlock, derive_key_block
from .records_batch import WTLS_MAC_BYTES  # truncated HMAC (10 bytes)
from .transport import DuplexChannel, Endpoint


class WTLSRecordEncoder:
    """Datagram record protection: explicit sequence, truncated MAC.

    Block suites derive a per-record IV from the session IV and the
    sequence number (WTLS's ``IV xor seq`` construction) so records
    remain independently decryptable after loss.
    """

    #: Span attribute distinguishing WTLS from mini-TLS record paths.
    layer = "wtls"

    def __init__(self, suite: CipherSuite, cipher_key: bytes, mac_key: bytes,
                 iv: bytes) -> None:
        self.suite = suite
        self._key = cipher_key
        self._mac_key = mac_key
        # One keyed HMAC per direction; per-record MACs clone its pad
        # states (the record layer never re-keys on the hot path).
        self._mac_base = HMAC(mac_key, suite.hash_factory)
        self._iv = iv
        self._sequence = 0
        # The suite's seal pipeline, compiled once: per-record key/IV
        # derivation (key xor seq / iv xor seq) collapses to a big-int
        # XOR and block suites reuse one cached key schedule.
        self._encode_one, self._encode_span = \
            records_batch.compile_wtls_encoder(self)

    @property
    def sequence(self) -> int:
        """Next datagram's explicit sequence number (diagnostics)."""
        return self._sequence

    def encode(self, payload: bytes) -> bytes:
        """Protect one datagram."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._encode_one(payload)
        return records_batch.trace_record(
            telemetry, self, "record.encode", len(payload), None,
            self._encode_one, payload)

    def encode_batch(self, payloads: Iterable[bytes],
                     max_fragment: int = records_batch.MAX_FRAGMENT) -> bytes:
        """Protect N datagram payloads into one buffer of records.

        See :func:`repro.protocols.records_batch.encode_batch`."""
        items = ((None, payload) for payload in payloads)
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return records_batch.encode_batch(self, items, max_fragment)[0]
        return records_batch.trace_batch(
            telemetry, self, "record.encode_batch", records_batch.encode_batch,
            self, items, max_fragment)


class WTLSRecordDecoder:
    """Datagram record opening with replay rejection.

    ``distinguishable_errors`` reproduces the historical WTLS flaw
    Vaudenay exploited in 2002: bad padding and bad MAC raised
    *different* alerts, handing attackers a padding oracle
    (:mod:`repro.attacks.padding_oracle`).  The secure default unifies
    both into :class:`~repro.protocols.alerts.BadRecordMAC`.
    """

    #: Span attribute distinguishing WTLS from mini-TLS record paths.
    layer = "wtls"

    def __init__(self, suite: CipherSuite, cipher_key: bytes, mac_key: bytes,
                 iv: bytes, distinguishable_errors: bool = False) -> None:
        self.suite = suite
        self._key = cipher_key
        self._mac_key = mac_key
        self._mac_base = HMAC(mac_key, suite.hash_factory)
        self._iv = iv
        self._seen: set = set()
        self.distinguishable_errors = distinguishable_errors
        self.highest_sequence = -1
        self.received = 0
        self._decode_one, self._decode_span = \
            records_batch.compile_wtls_decoder(self)

    def decode(self, record: bytes) -> Tuple[int, bytes]:
        """Open one datagram -> (sequence, payload); tolerates gaps."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._decode(record)
        return records_batch.trace_record(
            telemetry, self, "record.decode", len(record), None,
            self._decode, record)

    def _decode(self, record: bytes) -> Tuple[int, bytes]:
        if len(record) < 6:
            raise DecodeError("WTLS record shorter than header")
        sequence = int.from_bytes(record[:4], "big")
        length = int.from_bytes(record[4:6], "big")
        if len(record) - 6 != length:
            raise DecodeError("WTLS record length mismatch")
        return self._decode_one(sequence, memoryview(record)[6:])

    def decode_batch(self, buffer: bytes, skip_damaged: bool = False
                     ) -> Tuple[List[Tuple[int, bytes]], List[ProtocolAlert]]:
        """Open a buffer of records -> ``([(sequence, payload)], damaged)``.

        With ``skip_damaged`` (the datagram discipline of
        :meth:`WTLSConnection.receive_next`) corrupt, replayed, or
        truncated records are collected in ``damaged`` and the walk
        continues at the next record; otherwise the first failure raises
        :class:`~repro.protocols.records_batch.BatchRecordError`."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._decode_span(memoryview(buffer), skip_damaged)[0]
        return records_batch.trace_batch(
            telemetry, self, "record.decode_batch", self._decode_span,
            memoryview(buffer), skip_damaged, n=len(buffer))

    @property
    def records_lost(self) -> int:
        """Sequence gaps observed so far (datagrams that never decoded)."""
        return (self.highest_sequence + 1) - self.received


@dataclass
class WTLSConnection:
    """One endpoint of an established WTLS session."""

    encoder: WTLSRecordEncoder
    decoder: WTLSRecordDecoder
    endpoint: Endpoint
    suite_name: str
    discarded: int = 0

    def send(self, data: bytes) -> None:
        """Protect and transmit one datagram."""
        self.endpoint.send(self.encoder.encode(data))

    def receive(self) -> bytes:
        """Receive and open the next datagram."""
        _, payload = self.decoder.decode(self.endpoint.receive())
        return payload

    def send_batch(self, payloads: Iterable[bytes]) -> None:
        """Protect N datagrams into one transmission.

        The whole batch rides a single transport message, so the
        per-message transport overhead (ARQ framing, checksums, acks)
        is paid once per batch instead of once per record."""
        self.endpoint.send(self.encoder.encode_batch(payloads))

    def receive_batch(self) -> List[bytes]:
        """Receive one transmission and open every record in it.

        Damaged records are discarded (counted in ``discarded``) and
        their healthy neighbours delivered — the batched form of
        :meth:`receive_next`'s skip-and-continue discipline, safe
        because the decoder commits no state for a failed record."""
        records, damaged = self.decoder.decode_batch(
            self.endpoint.receive(), skip_damaged=True)
        self.discarded += len(damaged)
        return [payload for _, payload in records]

    def receive_next(self, max_skip: int = 16) -> bytes:
        """Receive the next *valid* datagram, skipping damaged ones.

        Datagram transports degrade gracefully: a corrupted, replayed,
        or truncated record is discarded (counted in ``discarded``) and
        the reader moves on, up to ``max_skip`` bad records in a row.
        Raises the last record error once the skip budget is spent, and
        :class:`~repro.protocols.transport.ChannelEmpty` when the link
        runs dry first.
        """
        if max_skip < 0:
            raise ValueError(f"max_skip must be >= 0, got {max_skip}")
        last_error: Optional[Exception] = None
        for _ in range(max_skip + 1):
            raw = self.endpoint.receive()
            try:
                _, payload = self.decoder.decode(raw)
            except (BadRecordMAC, DecodeError, ReplayError) as exc:
                self.discarded += 1
                last_error = exc
                continue
            return payload
        raise last_error

    @property
    def records_lost(self) -> int:
        """Inbound datagrams lost in transit (sequence-gap estimate)."""
        return self.decoder.records_lost


def wtls_connect(client: ClientConfig, server: ServerConfig,
                 channel: Optional[DuplexChannel] = None,
                 endpoints: Optional[Tuple[Endpoint, Endpoint]] = None
                 ) -> Tuple[WTLSConnection, WTLSConnection]:
    """Run the (TLS-grammar) handshake, then switch to WTLS records.

    WTLS reuses the handshake machinery — "adaptations of the wired
    security protocols" — but the data phase uses the datagram record
    layer above.  ``endpoints`` lets the session ride pre-built
    endpoints (e.g. an ARQ-protected lossy link).
    """
    handset, gateway, _ = wtls_connect_session(client, server, channel,
                                               endpoints)
    return handset, gateway


def wtls_connect_session(client: ClientConfig, server: ServerConfig,
                         channel: Optional[DuplexChannel] = None,
                         endpoints: Optional[Tuple[Endpoint, Endpoint]] = None
                         ) -> Tuple[WTLSConnection, WTLSConnection, Session]:
    """:func:`wtls_connect` that also returns the client's negotiated
    :class:`~repro.protocols.handshake.Session`, whose master secret
    mints resumption tickets."""
    if endpoints is not None:
        client_ep, server_ep = endpoints
    else:
        channel = channel or DuplexChannel()
        client_ep = channel.endpoint_a()
        server_ep = channel.endpoint_b()
    with probe.span("session", kind="wtls",
                    server=server.certificate.subject):
        client_session, _ = run_handshake(client, server, client_ep, server_ep)
    suite = client_session.suite
    # The Finished exchange proved both masters equal: one key block.
    handset, gateway = connection_pair(
        suite, _rederive(client_session.master, suite), client_ep, server_ep)
    return handset, gateway, client_session


def connection_pair(suite: CipherSuite, keys: KeyBlock,
                    client_ep: Endpoint, server_ep: Endpoint
                    ) -> Tuple[WTLSConnection, WTLSConnection]:
    """Build the (client, server) connections for one shared key block:
    the handset and gateway ends of a WTLS session."""
    client_half = (keys.client_cipher_key, keys.client_mac_key,
                   keys.client_iv)
    server_half = (keys.server_cipher_key, keys.server_mac_key,
                   keys.server_iv)
    return (
        WTLSConnection(
            encoder=WTLSRecordEncoder(suite, *client_half),
            decoder=WTLSRecordDecoder(suite, *server_half),
            endpoint=client_ep, suite_name=suite.name),
        WTLSConnection(
            encoder=WTLSRecordEncoder(suite, *server_half),
            decoder=WTLSRecordDecoder(suite, *client_half),
            endpoint=server_ep, suite_name=suite.name),
    )


def _rederive(master: bytes, suite: CipherSuite) -> KeyBlock:
    # Independent label-space from the TLS record keys: WTLS derives its
    # own key block from the shared master secret.
    return derive_key_block(master, b"wtls-client", b"wtls-server", suite)
