"""The mini-TLS handshake: negotiation, auth, failure modes."""

import pytest

from repro.crypto.rng import DeterministicDRBG
from repro.protocols.alerts import (
    BadRecordMAC,
    CertificateError,
    HandshakeFailure,
)
from repro.protocols.certificates import CertificateAuthority
from repro.protocols.ciphersuites import (
    ALL_SUITES,
    DH_WITH_3DES_SHA,
    LIGHTWEIGHT_SUITES,
    RSA_WITH_3DES_SHA,
    RSA_WITH_AES_SHA,
    RSA_WITH_RC2_MD5,
    RSA_WITH_RC4_SHA,
    negotiate,
    suites_for_registry,
)
from repro.crypto.registry import aes_rollout, default_registry
from repro.protocols.handshake import ClientConfig, ServerConfig
from repro.protocols.tls import connect
from repro.protocols.transport import DuplexChannel


def make_client(ca, seed="c", **kwargs):
    return ClientConfig(rng=DeterministicDRBG(seed), ca=ca, **kwargs)


def make_server(server_credentials, seed="s", **kwargs):
    key, cert = server_credentials
    return ServerConfig(rng=DeterministicDRBG(seed), certificate=cert,
                        private_key=key, **kwargs)


class TestNegotiation:
    def test_first_client_preference_wins(self, ca, server_credentials):
        client = make_client(ca, suites=[RSA_WITH_RC4_SHA, RSA_WITH_3DES_SHA])
        server = make_server(server_credentials)
        conn_c, conn_s = connect(client, server)
        assert conn_c.suite_name == "RSA_WITH_RC4_128_SHA"
        assert conn_s.suite_name == conn_c.suite_name

    def test_server_restriction_respected(self, ca, server_credentials):
        client = make_client(ca)  # offers everything
        server = make_server(server_credentials,
                             suites=[RSA_WITH_AES_SHA])
        conn_c, _ = connect(client, server)
        assert conn_c.suite_name == "RSA_WITH_AES_128_CBC_SHA"

    def test_no_common_suite_fails(self, ca, server_credentials):
        client = make_client(ca, suites=[RSA_WITH_RC4_SHA])
        server = make_server(server_credentials, suites=[RSA_WITH_3DES_SHA])
        with pytest.raises(HandshakeFailure):
            connect(client, server)

    def test_negotiate_helper(self):
        assert negotiate([RSA_WITH_RC4_SHA], [RSA_WITH_RC4_SHA]) is \
            RSA_WITH_RC4_SHA
        assert negotiate([RSA_WITH_RC4_SHA], [RSA_WITH_3DES_SHA]) is None

    def test_registry_gates_suites(self):
        registry = default_registry()
        before = {s.name for s in suites_for_registry(registry)}
        assert "RSA_WITH_AES_128_CBC_SHA" not in before
        aes_rollout(registry)
        after = {s.name for s in suites_for_registry(registry)}
        assert "RSA_WITH_AES_128_CBC_SHA" in after

    @pytest.mark.parametrize("suite", [s for s in ALL_SUITES
                                       if s.cipher != "NULL"],
                             ids=lambda s: s.name)
    def test_every_suite_carries_data(self, ca, server_credentials, suite):
        client = make_client(ca, suites=[suite])
        server = make_server(server_credentials)
        conn_c, conn_s = connect(client, server)
        conn_c.send(b"up " + suite.name.encode())
        assert conn_s.receive() == b"up " + suite.name.encode()
        conn_s.send(b"down")
        assert conn_c.receive() == b"down"

    def test_legacy_server_walks_past_lightweight_preference(
            self, ca, server_credentials):
        """A handset leading with the lightweight stream family still
        converges with a gateway that predates the rollout: negotiation
        skips the unsupported suites and the one handshake lands on the
        first shared legacy suite."""
        legacy = [s for s in ALL_SUITES if s not in LIGHTWEIGHT_SUITES]
        client = make_client(ca, suites=list(LIGHTWEIGHT_SUITES) + legacy)
        server = make_server(server_credentials, suites=list(legacy))
        conn_c, conn_s = connect(client, server)
        assert conn_c.suite_name == legacy[0].name
        assert conn_s.suite_name == conn_c.suite_name
        conn_c.send(b"legacy gateway, lightweight handset")
        assert conn_s.receive() == b"legacy gateway, lightweight handset"


class TestAuthentication:
    def test_server_name_check(self, ca, server_credentials):
        client = make_client(ca, expected_server="other.example")
        server = make_server(server_credentials)
        with pytest.raises(CertificateError):
            connect(client, server)

    def test_untrusted_ca_rejected(self, server_credentials):
        rogue_ca = CertificateAuthority("RogueCA", DeterministicDRBG("rogue"))
        client = make_client(rogue_ca)
        server = make_server(server_credentials)
        with pytest.raises(CertificateError):
            connect(client, server)

    def test_expired_certificate_rejected(self, ca):
        key, cert = ca.issue("old.example", DeterministicDRBG("old"),
                             not_before=0, not_after=10)
        client = make_client(ca)
        client.now = 100
        server = ServerConfig(rng=DeterministicDRBG("s"), certificate=cert,
                              private_key=key)
        with pytest.raises(CertificateError):
            connect(client, server)

    def test_mutual_auth_succeeds(self, ca, server_credentials,
                                  client_credentials):
        ckey, ccert = client_credentials
        client = make_client(ca, certificate=ccert, private_key=ckey)
        server = make_server(server_credentials, require_client_auth=True,
                             ca=ca)
        conn_c, conn_s = connect(client, server)
        assert conn_s.session.peer_certificate.subject == "client.device"

    def test_mutual_auth_without_credential_fails(self, ca,
                                                  server_credentials):
        client = make_client(ca)
        server = make_server(server_credentials, require_client_auth=True,
                             ca=ca)
        with pytest.raises(HandshakeFailure):
            connect(client, server)


class TestActiveAttacks:
    def test_mitm_suite_downgrade_detected(self, ca, server_credentials):
        """A MITM rewriting the ClientHello to strip strong suites is
        caught (here: the handshake breaks rather than silently
        downgrading, because the key exchange binds the transcript)."""

        def downgrade(frame, direction):
            if direction == "a->b" and frame[:1] == b"\x01":
                strong = b"RSA_WITH_3DES_EDE_CBC_SHA"
                weak = b"RSA_EXPORT_WITH_RC2_CBC_40"
                if strong in frame:
                    return frame.replace(strong, weak[:len(strong)])
            return frame

        channel = DuplexChannel(interceptor=downgrade)
        client = make_client(ca, suites=[RSA_WITH_3DES_SHA, RSA_WITH_RC2_MD5])
        server = make_server(server_credentials)
        with pytest.raises((HandshakeFailure, BadRecordMAC, Exception)):
            conn_c, conn_s = connect(client, server, channel)
            conn_c.send(b"x")
            conn_s.receive()

    def test_handshake_tamper_breaks_finished(self, ca, server_credentials):
        """Flipping any pre-Finished byte desynchronises the transcript
        digests, so a Finished check must fail."""
        state = {"done": False}

        def tamper(frame, direction):
            # Corrupt a byte of the ClientKeyExchange (type 3).
            if (direction == "a->b" and frame[:1] == b"\x03"
                    and not state["done"]):
                state["done"] = True
                mutated = bytearray(frame)
                mutated[10] ^= 0x01
                return bytes(mutated)
            return frame

        channel = DuplexChannel(interceptor=tamper)
        client = make_client(ca)
        server = make_server(server_credentials)
        with pytest.raises((HandshakeFailure, BadRecordMAC, Exception)):
            connect(client, server, channel)

    def test_application_data_tamper_detected(self, ca, server_credentials):
        flip = {"armed": False}

        def tamper(frame, direction):
            if flip["armed"] and direction == "a->b":
                mutated = bytearray(frame)
                mutated[-1] ^= 0xFF
                return bytes(mutated)
            return frame

        channel = DuplexChannel(interceptor=tamper)
        conn_c, conn_s = connect(
            make_client(ca), make_server(server_credentials), channel)
        flip["armed"] = True
        conn_c.send(b"transfer 100")
        with pytest.raises(BadRecordMAC):
            conn_s.receive()

    def test_eavesdropper_sees_no_plaintext(self, ca, server_credentials):
        channel = DuplexChannel()
        conn_c, conn_s = connect(
            make_client(ca), make_server(server_credentials), channel)
        secret = b"PIN=1234 ACCOUNT=9876543210"
        conn_c.send(secret)
        conn_s.receive()
        for _, frame in channel.log:
            assert secret not in frame


class TestSessionProperties:
    def test_shared_master_secret(self, ca, server_credentials):
        conn_c, conn_s = connect(
            make_client(ca), make_server(server_credentials))
        assert conn_c.session.master == conn_s.session.master

    def test_different_runs_different_keys(self, ca, server_credentials):
        first_c, _ = connect(
            make_client(ca, seed="run1"), make_server(server_credentials,
                                                      seed="srv1"))
        second_c, _ = connect(
            make_client(ca, seed="run2"), make_server(server_credentials,
                                                      seed="srv2"))
        assert first_c.session.master != second_c.session.master

    def test_transcript_digests_agree(self, ca, server_credentials):
        conn_c, conn_s = connect(
            make_client(ca), make_server(server_credentials))
        assert conn_c.session.transcript_digest == \
            conn_s.session.transcript_digest

    def test_byte_counters(self, ca, server_credentials):
        conn_c, conn_s = connect(
            make_client(ca), make_server(server_credentials))
        conn_c.send(b"12345")
        conn_s.receive()
        assert conn_c.bytes_sent == 5
        assert conn_s.bytes_received == 5

    def test_dh_forward_secrecy_setup(self, ca, server_credentials):
        client = make_client(ca, suites=[DH_WITH_3DES_SHA])
        server = make_server(server_credentials)
        conn_c, conn_s = connect(client, server)
        conn_c.send(b"ephemeral")
        assert conn_s.receive() == b"ephemeral"
