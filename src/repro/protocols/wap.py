"""The WAP architecture: handset, gateway, and origin server.

Section 2: "wireless handsets run the WAP protocol stack, and a WAP
gateway translates traffic to/from the wireless handset to
conventional Internet protocols (HTTP/TCP/IP)".  Security-wise this
creates the famous *WAP gap*: the handset's WTLS session terminates at
the gateway, which decrypts, converts, and re-encrypts toward the
origin server over TLS — so the gateway momentarily holds plaintext.

:class:`~repro.protocols.gateway_runtime.GatewayRuntime` is the
gateway: it models the translation including the gap, and its
``plaintext_log`` is the evidence our tests and the end-to-end example
use to show why §2 says applications needing true end-to-end
guarantees "may decide to directly employ security mechanisms"
(application-layer security on top).  This module keeps the names the
gateway world shares: the gateway and origin certificate subjects, the
degraded-reply prefix, and the origin server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .handshake import ServerConfig

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
