"""The mini-TLS handshake state machines (client and server).

Implements the SSL-style authenticated key establishment the paper's
§3.1/§3.2 analyses revolve around: suite negotiation from the client's
preference list, server (and optionally client) certificate
authentication against a CA, RSA or ephemeral-DH key exchange, PRF key
derivation, and Finished messages binding the transcript — so a
man-in-the-middle who rewrites the negotiation is caught (the tests
exercise exactly that tampering).

Endpoints exchange raw message bytes until keys exist; both Finished
messages travel under the freshly derived record protection, as in
SSL 3.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..crypto.bitops import constant_time_compare
from ..crypto.dh import DHGroup, DHParty
from ..crypto.kea import KEAParty
from ..crypto.errors import CryptoError, SignatureError
from ..crypto.rng import DeterministicDRBG
from ..crypto.rsa import RSAPrivateKey
from ..crypto.sha1 import sha1
from ..observability import probe
from ..observability.attribution import handshake_cycles
from .alerts import BadRecordMAC, CertificateError, HandshakeFailure
from .certificates import Certificate, CertificateAuthority
from .ciphersuites import ALL_SUITES, SUITES_BY_NAME, CipherSuite, negotiate
from .kdf import derive_key_block, finished_verify_data, master_secret
from .messages import ClientHello, ClientKeyExchange, Finished, ServerHello
from .records import CONTENT_HANDSHAKE, RecordDecoder, RecordEncoder, make_record_pair
from .transport import Endpoint

PREMASTER_BYTES = 48


@dataclass
class Session:
    """Negotiated state both sides hold after a successful handshake."""

    suite: CipherSuite
    master: bytes
    encoder: RecordEncoder
    decoder: RecordDecoder
    peer_certificate: Optional[Certificate]
    transcript_digest: bytes
    handshake_messages: int


@dataclass
class ClientConfig:
    """Client-side handshake inputs."""

    rng: DeterministicDRBG
    ca: CertificateAuthority
    suites: List[CipherSuite] = field(default_factory=lambda: list(ALL_SUITES))
    expected_server: Optional[str] = None
    certificate: Optional[Certificate] = None
    private_key: Optional[RSAPrivateKey] = None
    now: int = 0


@dataclass
class ServerConfig:
    """Server-side handshake inputs."""

    rng: DeterministicDRBG
    certificate: Certificate
    private_key: RSAPrivateKey
    suites: List[CipherSuite] = field(default_factory=lambda: list(ALL_SUITES))
    require_client_auth: bool = False
    ca: Optional[CertificateAuthority] = None
    dh_group: Optional[DHGroup] = None
    now: int = 0


def _transcript_digest(messages: List[bytes]) -> bytes:
    return sha1(b"".join(messages))


def run_handshake(client: ClientConfig, server: ServerConfig,
                  client_ep: Endpoint, server_ep: Endpoint
                  ) -> Tuple[Session, Session]:
    """Drive a complete handshake over a channel; returns both sessions.

    Raises :class:`HandshakeFailure` / :class:`CertificateError` on any
    negotiation, authentication, or transcript-binding failure.
    """
    telemetry = probe.active
    if telemetry is None:
        return _run_handshake(client, server, client_ep, server_ep)
    with telemetry.span("handshake") as span:
        try:
            sessions = _run_handshake(client, server, client_ep, server_ep)
        except Exception as exc:
            span.set(outcome="failure", error=type(exc).__name__)
            raise
        span.set(outcome="success", suite=sessions[0].suite.name)
        modulus = getattr(server.private_key, "n", None)
        telemetry.add_cycles(
            handshake_cycles(
                rsa_bits=modulus.bit_length() if modulus else 1024),
            kind="handshake")
        return sessions


def _run_handshake(client: ClientConfig, server: ServerConfig,
                   client_ep: Endpoint, server_ep: Endpoint
                   ) -> Tuple[Session, Session]:
    # Each side hashes its OWN view of the handshake: the client what
    # it sent/received, the server what it received/sent.  The Finished
    # exchange then catches any in-flight tampering (the view digests
    # diverge), which a single shared transcript could never detect.
    client_transcript: List[bytes] = []
    server_transcript: List[bytes] = []

    # -- ClientHello ----------------------------------------------------------
    client_random = client.rng.random_bytes(32)
    hello = ClientHello(client_random, [s.name for s in client.suites])
    raw_out = hello.to_bytes()
    client_ep.send(raw_out)
    client_transcript.append(raw_out)
    raw = server_ep.receive()
    server_transcript.append(raw)
    hello_seen = ClientHello.from_bytes(raw)

    # -- ServerHello ----------------------------------------------------------
    offered = [
        SUITES_BY_NAME[name]
        for name in hello_seen.suite_names
        if name in SUITES_BY_NAME
    ]
    suite = negotiate(offered, server.suites)
    if suite is None:
        raise HandshakeFailure(
            "no common cipher suite between client and server"
        )
    server_random = server.rng.random_bytes(32)
    dh_server: Optional[DHParty] = None
    kea_server: Optional[KEAParty] = None
    kex_payload = b""
    if suite.key_exchange == "DH":
        group = server.dh_group or DHGroup.oakley1()
        dh_server = DHParty(group, server.rng)
        kex_payload = _encode_dh_server(group, dh_server, server.private_key)
    elif suite.key_exchange == "KEA":
        group = server.dh_group or DHGroup.oakley1()
        kea_server = KEAParty(group, server.rng)
        kex_payload = _encode_kea_server(
            group, kea_server, server.private_key)
    server_hello = ServerHello(
        server_random=server_random,
        suite_name=suite.name,
        certificate=server.certificate.to_bytes(),
        key_exchange=kex_payload,
        request_client_auth=server.require_client_auth,
    )
    raw_out = server_hello.to_bytes()
    server_ep.send(raw_out)
    server_transcript.append(raw_out)
    raw = client_ep.receive()
    client_transcript.append(raw)
    hello_reply = ServerHello.from_bytes(raw)
    chosen = SUITES_BY_NAME.get(hello_reply.suite_name)
    if chosen is None or chosen.name not in {s.name for s in client.suites}:
        raise HandshakeFailure(
            f"server chose unacceptable suite {hello_reply.suite_name!r}"
        )

    # -- client authenticates server ------------------------------------------
    server_cert = Certificate.from_bytes(hello_reply.certificate)
    client.ca.validate(
        server_cert, now=client.now, expected_subject=client.expected_server
    )

    # -- key exchange ----------------------------------------------------------
    with probe.span("kex", side="client", algo=chosen.key_exchange):
        if chosen.key_exchange == "RSA":
            premaster = client.rng.random_bytes(PREMASTER_BYTES)
            kex_bytes = server_cert.public_key.encrypt(premaster, client.rng)
        elif chosen.key_exchange == "KEA":
            group, srv_static, srv_ephemeral = _decode_kea_server(
                hello_reply.key_exchange, server_cert
            )
            kea_client = KEAParty(group, client.rng)
            premaster = kea_client.shared_key(
                srv_static, srv_ephemeral, PREMASTER_BYTES)
            width = (group.p.bit_length() + 7) // 8
            kex_bytes = (
                kea_client.static.public.to_bytes(width, "big")
                + kea_client.ephemeral.public.to_bytes(width, "big")
            )
        else:
            group, server_public = _decode_dh_server(
                hello_reply.key_exchange, server_cert
            )
            dh_client = DHParty(group, client.rng)
            premaster = dh_client.shared_key(server_public, PREMASTER_BYTES)
            kex_bytes = dh_client.public.to_bytes(
                (group.p.bit_length() + 7) // 8, "big"
            )

    client_cert_bytes = b""
    verify_bytes = b""
    if hello_reply.request_client_auth:
        if client.certificate is None or client.private_key is None:
            raise HandshakeFailure(
                "server requires client authentication but client has "
                "no credential"
            )
        client_cert_bytes = client.certificate.to_bytes()
        verify_bytes = client.private_key.sign(
            _transcript_digest(client_transcript)
        )
    ckx = ClientKeyExchange(kex_bytes, client_cert_bytes, verify_bytes)
    raw_out = ckx.to_bytes()
    client_ep.send(raw_out)
    client_transcript.append(raw_out)
    raw = server_ep.receive()
    server_transcript.append(raw)
    ckx_seen = ClientKeyExchange.from_bytes(raw)

    # -- server recovers premaster / authenticates client ----------------------
    client_cert: Optional[Certificate] = None
    with probe.span("kex", side="server", algo=suite.key_exchange):
        if suite.key_exchange == "RSA":
            try:
                server_premaster = server.private_key.decrypt(
                    ckx_seen.key_exchange)
            except CryptoError as exc:
                raise HandshakeFailure(
                    f"premaster decryption failed: {exc}") from exc
            if len(server_premaster) != PREMASTER_BYTES:
                raise HandshakeFailure("premaster has wrong length")
        elif suite.key_exchange == "KEA":
            assert kea_server is not None
            width = (kea_server.group.p.bit_length() + 7) // 8
            client_static = int.from_bytes(
                ckx_seen.key_exchange[:width], "big")
            client_ephemeral = int.from_bytes(
                ckx_seen.key_exchange[width:], "big")
            server_premaster = kea_server.shared_key(
                client_static, client_ephemeral, PREMASTER_BYTES)
        else:
            assert dh_server is not None
            client_public = int.from_bytes(ckx_seen.key_exchange, "big")
            server_premaster = dh_server.shared_key(
                client_public, PREMASTER_BYTES)
    if server.require_client_auth:
        if server.ca is None:
            raise HandshakeFailure("server requires client auth but has no CA")
        if not ckx_seen.client_certificate:
            raise HandshakeFailure("client did not present a certificate")
        client_cert = Certificate.from_bytes(ckx_seen.client_certificate)
        server.ca.validate(client_cert, now=server.now)
        try:
            client_cert.public_key.verify(
                _transcript_digest(server_transcript[:-1]),
                ckx_seen.certificate_verify,
            )
        except SignatureError as exc:
            raise HandshakeFailure(
                f"client CertificateVerify invalid: {exc}"
            ) from exc

    # -- key derivation ---------------------------------------------------------
    client_digest = _transcript_digest(client_transcript)
    server_digest = _transcript_digest(server_transcript)
    client_master = master_secret(
        premaster, client_random, hello_reply.server_random
    )
    server_master = master_secret(
        server_premaster, hello_seen.client_random, server_random
    )
    client_keys = derive_key_block(
        client_master, client_random, hello_reply.server_random, chosen
    )
    server_keys = derive_key_block(
        server_master, hello_seen.client_random, server_random, suite
    )
    client_enc, client_dec = make_record_pair(chosen, client_keys, is_client=True)
    server_enc, server_dec = make_record_pair(suite, server_keys, is_client=False)

    # -- Finished exchange (under the new keys) ---------------------------------
    client_finish = Finished(
        finished_verify_data(client_master, client_digest, b"client finished")
    )
    client_ep.send(client_enc.encode(CONTENT_HANDSHAKE, client_finish.to_bytes()))
    try:
        _, payload = server_dec.decode(server_ep.receive())
    except BadRecordMAC as exc:
        probe.event("handshake.tamper", side="server",
                    stage="client-finished", kind="undecryptable")
        raise HandshakeFailure(
            f"client Finished undecryptable (keys diverged): {exc}"
        ) from exc
    seen_finish = Finished.from_bytes(payload)
    expected = finished_verify_data(
        server_master, server_digest, b"client finished"
    )
    if not constant_time_compare(expected, seen_finish.verify_data):
        probe.event("handshake.tamper", side="server",
                    stage="client-finished", kind="verify-data-mismatch")
        raise HandshakeFailure("client Finished verify_data mismatch")

    server_finish = Finished(
        finished_verify_data(server_master, server_digest, b"server finished")
    )
    server_ep.send(server_enc.encode(CONTENT_HANDSHAKE, server_finish.to_bytes()))
    try:
        _, payload = client_dec.decode(client_ep.receive())
    except BadRecordMAC as exc:
        probe.event("handshake.tamper", side="client",
                    stage="server-finished", kind="undecryptable")
        raise HandshakeFailure(
            f"server Finished undecryptable (keys diverged): {exc}"
        ) from exc
    seen_finish = Finished.from_bytes(payload)
    expected = finished_verify_data(
        client_master, client_digest, b"server finished"
    )
    if not constant_time_compare(expected, seen_finish.verify_data):
        probe.event("handshake.tamper", side="client",
                    stage="server-finished", kind="verify-data-mismatch")
        raise HandshakeFailure("server Finished verify_data mismatch")

    client_session = Session(
        suite=chosen, master=client_master, encoder=client_enc,
        decoder=client_dec, peer_certificate=server_cert,
        transcript_digest=client_digest,
        handshake_messages=len(client_transcript) + 2,
    )
    server_session = Session(
        suite=suite, master=server_master, encoder=server_enc,
        decoder=server_dec, peer_certificate=client_cert,
        transcript_digest=server_digest,
        handshake_messages=len(server_transcript) + 2,
    )
    return client_session, server_session


def _encode_dh_server(group: DHGroup, party: DHParty,
                      signer: RSAPrivateKey) -> bytes:
    p_bytes = group.p.to_bytes((group.p.bit_length() + 7) // 8, "big")
    g_bytes = group.g.to_bytes(4, "big")
    pub_bytes = party.public.to_bytes((group.p.bit_length() + 7) // 8, "big")
    payload = (
        len(p_bytes).to_bytes(2, "big") + p_bytes
        + g_bytes
        + len(pub_bytes).to_bytes(2, "big") + pub_bytes
    )
    signature = signer.sign(payload)
    return payload + len(signature).to_bytes(2, "big") + signature


def _decode_dh_server(blob: bytes, server_cert: Certificate):
    offset = 0
    p_len = int.from_bytes(blob[offset : offset + 2], "big")
    offset += 2
    p = int.from_bytes(blob[offset : offset + p_len], "big")
    offset += p_len
    g = int.from_bytes(blob[offset : offset + 4], "big")
    offset += 4
    pub_len = int.from_bytes(blob[offset : offset + 2], "big")
    offset += 2
    public = int.from_bytes(blob[offset : offset + pub_len], "big")
    offset += pub_len
    payload = blob[:offset]
    sig_len = int.from_bytes(blob[offset : offset + 2], "big")
    signature = blob[offset + 2 : offset + 2 + sig_len]
    try:
        server_cert.public_key.verify(payload, signature)
    except SignatureError as exc:
        raise HandshakeFailure(
            f"DH parameters signature invalid: {exc}"
        ) from exc
    return DHGroup(p=p, g=g), public


def _encode_kea_server(group: DHGroup, party: KEAParty,
                       signer: RSAPrivateKey) -> bytes:
    """KEA server parameters: p, g, static + ephemeral publics, signed."""
    width = (group.p.bit_length() + 7) // 8
    p_bytes = group.p.to_bytes(width, "big")
    payload = (
        len(p_bytes).to_bytes(2, "big") + p_bytes
        + group.g.to_bytes(4, "big")
        + party.static.public.to_bytes(width, "big")
        + party.ephemeral.public.to_bytes(width, "big")
    )
    signature = signer.sign(payload)
    return payload + len(signature).to_bytes(2, "big") + signature


def _decode_kea_server(blob: bytes, server_cert: Certificate):
    offset = 0
    p_len = int.from_bytes(blob[offset:offset + 2], "big")
    offset += 2
    p = int.from_bytes(blob[offset:offset + p_len], "big")
    offset += p_len
    g = int.from_bytes(blob[offset:offset + 4], "big")
    offset += 4
    static = int.from_bytes(blob[offset:offset + p_len], "big")
    offset += p_len
    ephemeral = int.from_bytes(blob[offset:offset + p_len], "big")
    offset += p_len
    payload = blob[:offset]
    sig_len = int.from_bytes(blob[offset:offset + 2], "big")
    signature = blob[offset + 2:offset + 2 + sig_len]
    try:
        server_cert.public_key.verify(payload, signature)
    except SignatureError as exc:
        raise HandshakeFailure(
            f"KEA parameters signature invalid: {exc}"
        ) from exc
    return DHGroup(p=p, g=g), static, ephemeral
