"""Protocol substrate: the paper's §2 security-protocol landscape.

A mini-TLS stack (handshake + record layer with the §3.1 cipher-suite
matrix), its wireless twin WTLS, WEP link security (faithfully broken),
an IPSec-style ESP datapath, GSM-style bearer security, and the WAP
gateway architecture with its observable "WAP gap".
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".certificates": "CertificateAuthority",
    ".faults": "FaultModel FaultyChannel",
    ".gateway_runtime": "build_gateway_runtime_world",
    ".handshake": "ServerConfig",
    ".reliable": "ReliableLink",
    ".tls": "connect",
})
