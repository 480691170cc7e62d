"""Protocol substrate: the paper's §2 security-protocol landscape.

A mini-TLS stack (handshake + record layer with the §3.1 cipher-suite
matrix), its wireless twin WTLS, WEP link security (faithfully broken),
an IPSec-style ESP datapath, GSM-style bearer security, and the WAP
gateway architecture with its observable "WAP gap".
"""

from .._lazy import lazy_exports

__all__ = [
    "ProtocolAlert", "HandshakeFailure", "BadRecordMAC", "DecodeError",
    "CertificateError", "ReplayError", "UnexpectedMessage",
    "Certificate", "CertificateAuthority",
    "CipherSuite", "ALL_SUITES", "SUITES_BY_NAME", "negotiate",
    "suites_for_registry",
    "ClientConfig", "ServerConfig", "Session", "run_handshake",
    "SecureConnection", "connect",
    "RecordEncoder", "RecordDecoder", "make_record_pair",
    "prf", "master_secret", "derive_key_block",
    "DuplexChannel", "Endpoint", "ChannelClosed", "ChannelEmpty",
    "FaultyChannel", "FaultModel", "FaultStats", "GilbertElliott",
    "ReliableLink", "ReliableEndpoint", "ReliableStats", "ARQConfig",
    "VirtualClock", "RetryBudgetExhausted",
    "WTLSConnection", "wtls_connect",
    "WEPStation", "WEPFrame",
    "SecurityAssociation", "make_tunnel",
    "SIM", "HomeRegister", "BaseStation", "Handset", "clone_sim",
    "OriginServer", "HandlerFailure",
    "DEGRADED_PREFIX",
    "GatewayRuntime", "RuntimeConfig", "RuntimeStats", "CircuitBreaker",
    "TokenBucket", "build_gateway_runtime_world",
    "busy_reply", "BUSY_PREFIX",
    "SessionCache", "CachedSession", "cache_session", "resume",
    "USIM", "AuthenticationCentre", "ServingNetwork3G", "AKAChallenge",
    "FalseBaseStation", "false_base_station_attack",
    "CookieProtectedResponder", "FloodReport", "flood_experiment",
    "OrderInfo", "PaymentInfo", "DualSignedPayment", "create_payment",
    "Merchant", "PaymentGateway", "PaymentError",
    "non_repudiation_evidence",
    "SIMCard", "APDU", "CardResponse", "kiosk_cloning_attack",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".aka": "AKAChallenge AuthenticationCentre FalseBaseStation "
            "ServingNetwork3G USIM false_base_station_attack",
    ".alerts": "BadRecordMAC CertificateError DecodeError HandshakeFailure "
               "ProtocolAlert ReplayError UnexpectedMessage",
    ".bearer": "SIM BaseStation Handset HomeRegister clone_sim",
    ".certificates": "Certificate CertificateAuthority",
    ".ciphersuites": "ALL_SUITES SUITES_BY_NAME CipherSuite negotiate "
                     "suites_for_registry",
    ".dos": "CookieProtectedResponder FloodReport flood_experiment",
    ".faults": "FaultModel FaultStats FaultyChannel GilbertElliott",
    ".gateway_runtime": "BUSY_PREFIX CircuitBreaker "
                        "GatewayRuntime RuntimeConfig RuntimeStats "
                        "TokenBucket build_gateway_runtime_world busy_reply",
    ".handshake": "ClientConfig ServerConfig Session run_handshake",
    ".ipsec": "SecurityAssociation make_tunnel",
    ".kdf": "derive_key_block master_secret prf",
    ".payment": "DualSignedPayment Merchant OrderInfo PaymentError "
                "PaymentGateway PaymentInfo create_payment "
                "non_repudiation_evidence",
    ".records": "RecordDecoder RecordEncoder make_record_pair",
    ".reliable": "ARQConfig ReliableEndpoint ReliableLink ReliableStats "
                 "RetryBudgetExhausted VirtualClock",
    ".resumption": "CachedSession SessionCache cache_session resume",
    ".smartcard": "APDU CardResponse SIMCard kiosk_cloning_attack",
    ".tls": "SecureConnection connect",
    ".transport": "ChannelClosed ChannelEmpty DuplexChannel Endpoint",
    ".wap": "DEGRADED_PREFIX HandlerFailure OriginServer",
    ".wep": "WEPFrame WEPStation",
    ".wtls": "WTLSConnection wtls_connect",
})
