"""Mini-TLS: secure connection API over the handshake + record layer.

The "transport-layer security protocol" of the paper's §2 protocol
landscape.  :func:`connect` wires a client and server configuration
through a :class:`~repro.protocols.transport.DuplexChannel` (optionally
adversarial) and returns two :class:`SecureConnection` objects whose
``send``/``receive`` move authenticated, encrypted application data.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..observability import probe
from .alerts import ProtocolAlert, UnexpectedMessage
from .handshake import ClientConfig, ServerConfig, Session, run_handshake
from .records import CONTENT_APPLICATION
from .transport import DuplexChannel, Endpoint


class SecureConnection:
    """One endpoint of an established mini-TLS session."""

    def __init__(self, session: Session, endpoint: Endpoint) -> None:
        self.session = session
        self._endpoint = endpoint
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, data: bytes) -> None:
        """Protect and transmit application data."""
        self._endpoint.send(self.session.encoder.encode(CONTENT_APPLICATION, data))
        self.bytes_sent += len(data)

    def receive(self) -> bytes:
        """Receive and open the next application-data record."""
        content_type, payload = self.session.decoder.decode(
            self._endpoint.receive()
        )
        if content_type != CONTENT_APPLICATION:
            raise UnexpectedMessage(
                f"expected application data, got content type {content_type}"
            )
        self.bytes_received += len(payload)
        return payload

    def send_batch(self, payloads: Iterable[bytes]) -> None:
        """Protect N application payloads into one transmission.

        The records are framed by the batched record plane
        (:func:`~repro.protocols.records_batch.encode_batch` — one
        amortized MAC/cipher pipeline, automatic fragmentation above
        the 2^14 ceiling) and the whole batch rides a single transport
        message, so per-message transport overhead (ARQ framing, CRC,
        acks) is paid once per batch instead of once per record."""
        payloads = list(payloads)
        self._endpoint.send(self.session.encoder.encode_batch(
            [(CONTENT_APPLICATION, payload) for payload in payloads]))
        self.bytes_sent += sum(len(payload) for payload in payloads)

    def receive_batch(self) -> List[bytes]:
        """Receive one transmission and open every record in it.

        Returns the payloads in order.  A record that fails to verify
        raises :class:`~repro.protocols.records_batch.BatchRecordError`
        carrying the intact records decoded before it — the
        transactional decoder guarantees one bad record cannot poison
        its neighbours."""
        records = self.session.decoder.decode_batch(self._endpoint.receive())
        out: List[bytes] = []
        append = out.append
        received = 0
        for content_type, payload in records:
            if content_type != CONTENT_APPLICATION:
                raise UnexpectedMessage(
                    f"expected application data, got content type "
                    f"{content_type}"
                )
            received += len(payload)
            append(payload)
        self.bytes_received += received
        return out

    @property
    def suite_name(self) -> str:
        """Negotiated cipher-suite name."""
        return self.session.suite.name


def connect(client: ClientConfig, server: ServerConfig,
            channel: Optional[DuplexChannel] = None,
            endpoints: Optional[Tuple[Endpoint, Endpoint]] = None
            ) -> Tuple[SecureConnection, SecureConnection]:
    """Handshake and return (client_connection, server_connection).

    Any failure surfaces as a :class:`ProtocolAlert` subclass; the
    channel (with its interceptor) is the attack surface.  Pass
    ``endpoints=(client_ep, server_ep)`` to run over pre-built
    endpoints — e.g. a :class:`~repro.protocols.reliable.ReliableLink`
    pair riding a :class:`~repro.protocols.faults.FaultyChannel`.
    """
    if endpoints is not None:
        client_ep, server_ep = endpoints
    else:
        channel = channel or DuplexChannel()
        client_ep = channel.endpoint_a()
        server_ep = channel.endpoint_b()
    with probe.span("session", kind="tls",
                    server=server.certificate.subject):
        client_session, server_session = run_handshake(
            client, server, client_ep, server_ep
        )
    return (
        SecureConnection(client_session, client_ep),
        SecureConnection(server_session, server_ep),
    )


__all__ = ["SecureConnection", "connect", "ProtocolAlert"]
