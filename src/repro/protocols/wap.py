"""The WAP architecture: handset, gateway, and origin server.

Section 2: "wireless handsets run the WAP protocol stack, and a WAP
gateway translates traffic to/from the wireless handset to
conventional Internet protocols (HTTP/TCP/IP)".  Security-wise this
creates the famous *WAP gap*: the handset's WTLS session terminates at
the gateway, which decrypts, converts, and re-encrypts toward the
origin server over TLS — so the gateway momentarily holds plaintext.

:class:`WAPGateway` models the translation including the gap; its
``plaintext_log`` is the evidence our tests and the end-to-end example
use to show why §2 says applications needing true end-to-end
guarantees "may decide to directly employ security mechanisms"
(application-layer security on top).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.rng import DeterministicDRBG
from ..observability import probe
from .certificates import CertificateAuthority
from .handshake import ClientConfig, ServerConfig
from .tls import SecureConnection, connect

RequestHandler = Callable[[bytes], bytes]

#: The subject of the gateway's certificate, which every handset expects.
GATEWAY_NAME = "gateway.operator"
#: The one origin server every gateway world registers.
ORIGIN_NAME = "origin.example"

DEGRADED_PREFIX = b"GW-DEGRADED:"


class HandlerFailure(Exception):
    """The origin's application handler raised mid-proxy.

    Distinct from the transport failures
    (:class:`~repro.protocols.alerts.ProtocolAlert`,
    :class:`~repro.protocols.transport.ChannelClosed`): the origin is
    *reachable*, its application code failed.  The
    :class:`~repro.protocols.gateway_runtime.GatewayRuntime` answers it
    degraded, keeps the TLS leg, counts it in ``handler_failures``
    instead of the wired-leg ledger and does not charge the origin's
    circuit breaker.
    """


@dataclass
class OriginServer:
    """A wired-Internet application server reachable over TLS."""

    name: str
    handler: RequestHandler
    config: ServerConfig


@dataclass
class WAPGateway:
    """Protocol translator between the WTLS and TLS worlds: the origin
    registry, the cached wired TLS legs and the WAP-gap plaintext log.
    :class:`~repro.protocols.gateway_runtime.GatewayRuntime` holds the
    handset sessions and proxies each request through it.

    The gateway is *trusted infrastructure* in the WAP model; the
    plaintext log makes the implied trust explicit and measurable.
    """

    ca: CertificateAuthority
    rng: DeterministicDRBG
    gateway_config: ServerConfig
    plaintext_log: List[bytes] = field(default_factory=list)
    wired_leg_failures: int = 0
    handler_failures: int = 0
    degraded_responses: int = 0
    _server_connections: Dict[str, SecureConnection] = field(default_factory=dict)
    _origin_sides: Dict[str, SecureConnection] = field(default_factory=dict)
    _servers: Dict[str, OriginServer] = field(default_factory=dict)

    def register_origin(self, server: OriginServer) -> None:
        """Make an origin server reachable through this gateway."""
        self._servers[server.name] = server

    def _server_connection(self, name: str) -> Tuple[SecureConnection, OriginServer]:
        server = self._servers[name]
        if name not in self._server_connections:
            client_cfg = ClientConfig(
                rng=DeterministicDRBG(
                    ("gw-client", name, self.rng.getrandbits(32)).__repr__()
                ),
                ca=self.ca,
                expected_server=name,
            )
            gw_conn, origin_conn = connect(client_cfg, server.config)
            self._server_connections[name] = gw_conn
            self._origin_sides[name] = origin_conn
        return self._server_connections[name], self._servers[name]

    def _drop_wired_leg(self, name: str) -> None:
        """Forget a (possibly broken) cached TLS connection to an origin."""
        self._server_connections.pop(name, None)
        self._origin_sides.pop(name, None)

    def _proxy_once(self, destination: str, request: bytes) -> bytes:
        telemetry = probe.active
        if telemetry is None:
            return self._proxy_once_inner(destination, request)
        with telemetry.span("gateway.wired-leg", origin=destination,
                            n=len(request)) as span:
            try:
                return self._proxy_once_inner(destination, request)
            except Exception as exc:
                span.set(error=type(exc).__name__)
                raise

    def _proxy_once_inner(self, destination: str, request: bytes) -> bytes:
        gw_conn, server = self._server_connection(destination)
        gw_conn.send(request)                     # TLS re-encrypt
        origin_conn = self._origin_sides[destination]
        inbound = origin_conn.receive()
        try:
            response = server.handler(inbound)
        except Exception as exc:
            # Application failure, not transport: the TLS legs are fine,
            # so keep them cached and let the runtime answer degraded.
            raise HandlerFailure(
                f"origin {destination!r} handler raised "
                f"{type(exc).__name__}: {exc}") from exc
        origin_conn.send(response)
        return gw_conn.receive()


def build_gateway(seed: int = 0, handler: Optional[RequestHandler] = None
                  ) -> Tuple[WAPGateway, CertificateAuthority]:
    """The CA, a gateway certified as :data:`GATEWAY_NAME`, and the
    :data:`ORIGIN_NAME` origin registered behind it; every key and RNG
    derives from ``seed``.  Returns ``(gateway, ca)``."""
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
    gateway = WAPGateway(
        ca=ca, rng=rng("gw-rng"),
        gateway_config=ServerConfig(rng=rng("gw-srv-rng"),
                                    certificate=gw_cert, private_key=gw_key))
    gateway.register_origin(origin)
    return gateway, ca
