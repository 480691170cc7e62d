"""Cross-package integration scenarios — the paper's stories end to end."""

import pytest

from repro.core.appliance import provision_appliance
from repro.core.keystore import KeyPolicy, KeyUsage, World
from repro.crypto.registry import aes_rollout, default_registry
from repro.crypto.rng import DeterministicDRBG
from repro.protocols.ciphersuites import suites_for_registry
from repro.protocols.handshake import ClientConfig, ServerConfig
from repro.protocols.tls import connect
from repro.protocols.transport import DuplexChannel
from repro.protocols.gateway_runtime import build_gateway_runtime_world


class TestMCommerceScenario:
    """§1's m-commerce vision: an unlocked handset transacts securely
    while the whole energy/battery story stays consistent."""

    def test_full_purchase_flow(self, ca, server_credentials):
        device = provision_appliance(seed=31, ca=ca)
        assert device.boot().succeeded
        assert device.unlock("owner", device._finger_simulator.read("owner"))

        key, cert = server_credentials
        server = ServerConfig(rng=DeterministicDRBG("shop"),
                              certificate=cert, private_key=key)
        channel = DuplexChannel()
        conn_c, conn_s = connect(
            device.tls_client_config(ca, expected_server="server.example"),
            server, channel)
        conn_c.send(b"PURCHASE item=42 price=9.99")
        assert conn_s.receive() == b"PURCHASE item=42 price=9.99"
        conn_s.send(b"CONFIRMED order=777")
        assert conn_c.receive() == b"CONFIRMED order=777"

        # The energy model charged the workload.
        report = device.run_secure_transaction(kilobytes=2.0, packets=3)
        assert report.energy_mj > 0
        assert device.platform.battery.fraction_remaining < 1.0

        # Nothing sensitive appeared on the air interface.
        for _, frame in channel.log:
            assert b"9.99" not in frame

    def test_signature_from_keystore_via_secure_app(self, ca):
        """Non-repudiation (§2): the payment receipt is signed by a key
        that never leaves the secure world."""
        from repro.core.secure_execution import sign_application

        device = provision_appliance(seed=32, ca=ca)
        device.boot()
        vendor = device._vendor
        app = sign_application(
            vendor.key, "receipt-signer", b"receipt signer v1",
            lambda api, payload: api.sign("device-identity-key", payload))
        device.environment.install(app, world=World.SECURE)
        receipt = b"order 777 delivered"
        signature = device.environment.invoke("receipt-signer", receipt)
        device._device_key.public.verify(receipt, signature)


class TestFlexibilityScenario:
    """§3.1: a 2001-era handset adopts AES after the June 2002 TLS
    revision via a registry update — no silicon change."""

    def test_aes_rollout_unlocks_suite(self, ca, server_credentials):
        registry = default_registry()
        key, cert = server_credentials

        def available_suites():
            return suites_for_registry(registry)

        before = {suite.name for suite in available_suites()}
        assert "RSA_WITH_AES_128_CBC_SHA" not in before

        # Firmware update (the Figure 2 event), then negotiate AES.
        aes_rollout(registry)
        client = ClientConfig(
            rng=DeterministicDRBG("flex"), ca=ca,
            suites=[s for s in available_suites()
                    if s.name == "RSA_WITH_AES_128_CBC_SHA"])
        server = ServerConfig(rng=DeterministicDRBG("flex-s"),
                              certificate=cert, private_key=key)
        conn_c, conn_s = connect(client, server)
        assert conn_c.suite_name == "RSA_WITH_AES_128_CBC_SHA"
        conn_c.send(b"post-rollout traffic")
        assert conn_s.receive() == b"post-rollout traffic"


class TestWAPGapScenario:
    """§2: bearer/transport security alone is not end-to-end — the WAP
    gateway sees plaintext, motivating application-layer security."""

    def test_gateway_sees_everything_unless_app_layer_encrypts(self):
        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=1, seed=40)
        handsets["handset-00"].send(b"account=123 balance-query")
        runtime.submit("handset-00", "origin.example")
        runtime.run()
        handsets["handset-00"].receive()
        assert any(b"account=123" in item
                   for item in runtime.plaintext_log)

    def test_application_layer_closes_the_gap(self):
        """Encrypting inside the WTLS payload (SET-style, §2) hides the
        content even from the gateway."""
        from repro.crypto.aes import AES
        from repro.crypto.modes import CBC

        end_to_end_key = bytes(range(16))

        def app_encrypt(data):
            return CBC(AES(end_to_end_key), bytes(16)).encrypt(data)

        def app_decrypt(blob):
            return CBC(AES(end_to_end_key), bytes(16)).decrypt(blob)

        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=1, seed=41, handler=lambda request: request)  # echo
        secret = b"account=123 PIN=9876"
        handsets["handset-00"].send(app_encrypt(secret))
        runtime.submit("handset-00", "origin.example")
        runtime.run()
        reply = app_decrypt(handsets["handset-00"].receive())
        assert reply == secret
        assert all(secret not in item
                   for item in runtime.plaintext_log)


class TestLayeredDefenseScenario:
    """Figure 5's layering exercised end to end: break the bottom layer
    and everything above collapses."""

    def test_boot_failure_cascades(self, ca):
        from repro.core.secure_boot import BootStage

        device = provision_appliance(seed=42, ca=ca)
        stage = device.boot_chain[0]
        device.boot_chain[0] = BootStage(
            stage.name, b"malicious bootloader", stage.signature)
        assert not device.boot().succeeded
        from repro.core.appliance import ApplianceLocked

        with pytest.raises(ApplianceLocked):
            device.tls_client_config(ca)

    def test_keystore_is_the_root_of_protocol_identity(self, ca):
        """The device certificate's key lives in the keystore; normal
        world cannot extract or use it."""
        from repro.core.keystore import AccessDenied

        device = provision_appliance(seed=43, ca=ca)
        with pytest.raises(AccessDenied):
            device.keystore.sign("device-identity-key", b"x", World.NORMAL)


class TestBatteryDrivenDegradation:
    """§3.3: security halves transaction budget; a dying battery stops
    secure service."""

    def test_secure_mode_halves_transactions(self):
        from repro.core.battery_life import figure4_report

        report = figure4_report()
        assert report.less_than_half

    def test_appliance_dies_mid_campaign(self, ca):
        from repro.hardware.battery import Battery, BatteryEmpty
        from repro.hardware.platform_builder import phone_platform

        platform = phone_platform()
        platform.battery = Battery(capacity_j=0.5)
        platform.__post_init__()
        device = provision_appliance(seed=44, ca=ca, platform=platform)
        device.boot()
        device.unlock("owner", device._finger_simulator.read("owner"))
        completed = 0
        with pytest.raises(BatteryEmpty):
            for _ in range(100_000):
                device.run_secure_transaction(kilobytes=1.0)
                completed += 1
        assert completed > 0
