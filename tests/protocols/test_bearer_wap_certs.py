"""Bearer security, the WAP gateway, certificates, KDF, messages."""

import pytest

from repro.crypto.rng import DeterministicDRBG
from repro.protocols.alerts import CertificateError, DecodeError
from repro.protocols.bearer import (
    SIM,
    BaseStation,
    Handset,
    HomeRegister,
    clone_sim,
)
from repro.protocols.certificates import Certificate, CertificateAuthority
from repro.protocols.ciphersuites import RSA_WITH_3DES_SHA
from repro.protocols.kdf import (
    derive_key_block,
    finished_verify_data,
    master_secret,
    p_hash,
    prf,
)
from repro.protocols.messages import (
    ClientHello,
    ClientKeyExchange,
    Finished,
    ServerHello,
)
from repro.protocols.gateway_runtime import build_gateway_runtime_world
from repro.protocols.wap import DEGRADED_PREFIX, ORIGIN_NAME


class TestBearer:
    @pytest.fixture()
    def network(self):
        register = HomeRegister()
        sim = SIM("262-01-0001", bytes(range(16)))
        register.provision(sim)
        base_station = BaseStation(register=register,
                                   rng=DeterministicDRBG("bs"))
        return sim, base_station

    def test_authentication_and_traffic(self, network):
        sim, base_station = network
        handset = Handset(sim)
        handset.attach(base_station)
        frame = handset.send_uplink(b"hello network")
        assert base_station.receive_uplink(sim.imsi, frame) == \
            b"hello network"

    def test_operator_sees_plaintext(self, network):
        """The §2 point: bearer security terminates at the base station."""
        sim, base_station = network
        handset = Handset(sim)
        handset.attach(base_station)
        base_station.receive_uplink(
            sim.imsi, handset.send_uplink(b"private sms"))
        assert b"private sms" in base_station.uplink_plaintext

    def test_unattached_handset_rejected(self, network):
        sim, base_station = network
        from repro.protocols.alerts import HandshakeFailure

        with pytest.raises(HandshakeFailure):
            base_station.receive_uplink(sim.imsi, b"raw")

    def test_ciphering_disabled_mode(self, network):
        """GSM networks can silently disable ciphering — data then rides
        in clear over the air."""
        sim, base_station = network
        base_station.ciphering_enabled = False
        handset = Handset(sim)
        handset.attach(base_station)
        over_the_air = handset.send_uplink(b"clear text", ciphering=False)
        assert over_the_air == b"clear text"  # an eavesdropper reads it

    def test_strong_sim_not_cloneable(self, network):
        sim, _ = network
        assert clone_sim(sim, DeterministicDRBG("clone")) is None

    def test_weak_sim_cloned(self):
        """The [25] GSM-cloning result against a COMP128-style A3."""
        weak = SIM("262-01-0002", bytes(range(16, 32)), weak_a3=True)
        recovered = clone_sim(weak, DeterministicDRBG("clone2"))
        assert recovered == weak.ki

    def test_triplet_determinism(self):
        register = HomeRegister()
        sim = SIM("x", bytes(16))
        register.provision(sim)
        a = register.triplet("x", DeterministicDRBG(1))
        b = register.triplet("x", DeterministicDRBG(1))
        assert a == b

    def test_short_ki_rejected_at_construction(self):
        """Regression: a sub-2-byte Ki used to crash deep inside the
        weak-A3 response (modulo by len-1) instead of failing fast."""
        with pytest.raises(ValueError):
            SIM("262-01-0003", b"")
        with pytest.raises(ValueError):
            SIM("262-01-0003", b"K", weak_a3=True)

    def test_minimum_ki_works_in_both_modes(self):
        strong = SIM("262-01-0004", b"Ki")
        assert len(strong.a3_response(b"challenge")) == 4
        weak = SIM("262-01-0005", b"Ki", weak_a3=True)
        assert len(weak.a3_response(b"challenge")) == 4
        assert clone_sim(weak, DeterministicDRBG("tiny")) == b"Ki"

    def test_empty_challenge_rejected(self):
        sim = SIM("262-01-0006", bytes(range(16)))
        with pytest.raises(ValueError):
            sim.a3_response(b"")


def _one_handset(seed, handler=None):
    """A gateway runtime serving one handset: ``(runtime, handset)``."""
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=seed, handler=handler)
    return runtime, handsets["handset-00"]


def _round_trip(runtime, handset, request, origin=ORIGIN_NAME):
    """Send one request through the gateway; the handset's reply."""
    handset.send(request)
    runtime.submit("handset-00", origin)
    runtime.run()
    return handset.receive()


class TestWAPGateway:
    def test_end_to_end_request(self):
        runtime, handset = _one_handset(seed=1)
        assert _round_trip(runtime, handset, b"GET /portfolio") == \
            b"OK:GET /portfolio"

    def test_wap_gap_exposes_plaintext(self):
        """The WAP gap: the gateway momentarily holds request and
        response in the clear."""
        runtime, handset = _one_handset(seed=2)
        _round_trip(runtime, handset, b"PIN 1234")
        assert runtime.plaintext_log == [b"PIN 1234", b"OK:PIN 1234"]

    def test_multiple_round_trips(self):
        runtime, handset = _one_handset(seed=3)
        for i in range(4):
            assert _round_trip(runtime, handset, f"req{i}".encode()) == \
                f"OK:req{i}".encode()

    def test_custom_handler(self):
        runtime, handset = _one_handset(
            seed=4, handler=lambda request: request[::-1])
        assert _round_trip(runtime, handset, b"abc") == b"cba"

    def test_unknown_origin_degrades_gracefully(self):
        """An unreachable origin yields a GW-DEGRADED reply over WTLS
        instead of crashing the gateway mid-proxy."""
        runtime, handset = _one_handset(seed=5)
        reply = _round_trip(runtime, handset, b"GET /nowhere",
                            origin="no-such-origin.example")
        assert reply == DEGRADED_PREFIX + b" origin unavailable (KeyError)"
        assert runtime.stats.degraded == 1
        assert runtime.stats.wired_failures == 0


class TestCertificates:
    def test_issue_and_validate(self, ca):
        _, cert = ca.issue("device.example", DeterministicDRBG("dev"))
        ca.validate(cert, now=500, expected_subject="device.example")

    def test_serialization_roundtrip(self, ca):
        _, cert = ca.issue("ser.example", DeterministicDRBG("ser"))
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_wrong_issuer_rejected(self, ca):
        other = CertificateAuthority("Other", DeterministicDRBG("other"))
        _, cert = other.issue("x.example", DeterministicDRBG("x"))
        with pytest.raises(CertificateError):
            ca.validate(cert)

    def test_forged_signature_rejected(self, ca):
        _, cert = ca.issue("f.example", DeterministicDRBG("f"))
        forged = Certificate(
            subject="f.example", issuer=cert.issuer,
            public_key=cert.public_key, not_before=cert.not_before,
            not_after=cert.not_after,
            signature=bytes(len(cert.signature)),
        )
        with pytest.raises(CertificateError):
            ca.validate(forged)

    def test_validity_window(self, ca):
        _, cert = ca.issue("w.example", DeterministicDRBG("w"),
                           not_before=100, not_after=200)
        ca.validate(cert, now=150)
        with pytest.raises(CertificateError):
            ca.validate(cert, now=50)
        with pytest.raises(CertificateError):
            ca.validate(cert, now=250)

    def test_subject_rebinding_rejected(self, ca):
        """Changing the subject breaks the signature (name binding)."""
        _, cert = ca.issue("orig.example", DeterministicDRBG("o"))
        rebound = Certificate(
            subject="evil.example", issuer=cert.issuer,
            public_key=cert.public_key, not_before=cert.not_before,
            not_after=cert.not_after, signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            ca.validate(rebound)

    def test_truncated_bytes_rejected(self, ca):
        _, cert = ca.issue("t.example", DeterministicDRBG("t"))
        with pytest.raises(CertificateError):
            Certificate.from_bytes(cert.to_bytes()[:20])


class TestKDF:
    def test_p_hash_length(self):
        for length in (1, 20, 21, 100):
            assert len(p_hash(b"secret", b"seed", length)) == length

    def test_prf_label_separation(self):
        assert prf(b"s", b"label-a", b"seed", 20) != \
            prf(b"s", b"label-b", b"seed", 20)

    def test_master_secret_binds_both_nonces(self):
        base = master_secret(b"pm", b"cr", b"sr")
        assert master_secret(b"pm", b"cX", b"sr") != base
        assert master_secret(b"pm", b"cr", b"sX") != base
        assert len(base) == 48

    def test_key_block_layout(self):
        keys = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32,
                                RSA_WITH_3DES_SHA)
        assert len(keys.client_mac_key) == 20
        assert len(keys.client_cipher_key) == 24
        assert len(keys.client_iv) == 8
        assert keys.client_cipher_key != keys.server_cipher_key

    def test_export_weakening_changes_keys(self):
        from repro.protocols.ciphersuites import RSA_WITH_RC2_MD5

        weak = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32,
                                RSA_WITH_RC2_MD5)
        assert len(weak.client_cipher_key) == 16  # stretched back

    def test_finished_verify_data(self):
        a = finished_verify_data(b"m" * 48, b"digest", b"client finished")
        b = finished_verify_data(b"m" * 48, b"digest", b"server finished")
        assert len(a) == 12
        assert a != b


class TestMessages:
    def test_client_hello_roundtrip(self):
        hello = ClientHello(bytes(32), ["A", "B", "C"])
        assert ClientHello.from_bytes(hello.to_bytes()) == hello

    def test_server_hello_roundtrip(self):
        hello = ServerHello(bytes(32), "SUITE", b"certbytes", b"kex", True)
        parsed = ServerHello.from_bytes(hello.to_bytes())
        assert parsed == hello

    def test_ckx_roundtrip(self):
        ckx = ClientKeyExchange(b"encrypted", b"cert", b"verify")
        assert ClientKeyExchange.from_bytes(ckx.to_bytes()) == ckx

    def test_finished_roundtrip(self):
        finished = Finished(bytes(12))
        assert Finished.from_bytes(finished.to_bytes()) == finished

    def test_wrong_type_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ServerHello.from_bytes(hello.to_bytes())

    def test_truncation_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ClientHello.from_bytes(hello.to_bytes()[:-3])

    def test_trailing_bytes_rejected(self):
        hello = ClientHello(bytes(32), ["A"])
        with pytest.raises(DecodeError):
            ClientHello.from_bytes(hello.to_bytes() + b"x")

    def test_empty_message_rejected(self):
        with pytest.raises(DecodeError):
            Finished.from_bytes(b"")
