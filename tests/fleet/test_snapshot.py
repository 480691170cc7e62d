"""Session snapshots: codec safety and the crash-equivalence property.

The load-bearing property of the whole checkpoint plane, stated as
code: interrupting a session at *any* point — checkpoint, crash,
restore on a different endpoint — then continuing, is byte-identical
on the wire to never having crashed at all, on every suite and both
dispatch paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastpath
from repro.fleet import SessionSnapshot, capture_connection, restore_connection
from repro.protocols.alerts import ReplayError
from repro.protocols.ciphersuites import (
    ALL_SUITES,
    LIGHTWEIGHT_SUITES,
    RSA_WITH_AES_SHA,
    RSA_WITH_RC4_SHA,
)
from repro.protocols.kdf import KeyBlock
from repro.protocols.transport import DuplexChannel
from repro.protocols.wtls import (
    WTLSConnection,
    WTLSRecordDecoder,
    WTLSRecordEncoder,
)


def _key_block(suite):
    def material(tag, count):
        return bytes((tag + i) % 256 for i in range(count))

    return KeyBlock(
        client_mac_key=material(1, suite.mac_key_bytes),
        server_mac_key=material(2, suite.mac_key_bytes),
        client_cipher_key=material(3, suite.cipher_key_bytes),
        server_cipher_key=material(4, suite.cipher_key_bytes),
        client_iv=material(5, suite.iv_bytes),
        server_iv=material(6, suite.iv_bytes),
    )


def _make_world(suite, channel):
    """A handset/gateway WTLS pair over one channel (fixed keys)."""
    keys = _key_block(suite)
    handset = WTLSConnection(
        encoder=WTLSRecordEncoder(suite, keys.client_cipher_key,
                                  keys.client_mac_key, keys.client_iv),
        decoder=WTLSRecordDecoder(suite, keys.server_cipher_key,
                                  keys.server_mac_key, keys.server_iv),
        endpoint=channel.endpoint_a(), suite_name=suite.name)
    gateway = WTLSConnection(
        encoder=WTLSRecordEncoder(suite, keys.server_cipher_key,
                                  keys.server_mac_key, keys.server_iv),
        decoder=WTLSRecordDecoder(suite, keys.client_cipher_key,
                                  keys.client_mac_key, keys.client_iv),
        endpoint=channel.endpoint_b(), suite_name=suite.name)
    return handset, gateway


def _exchange(handset, gateway, request: bytes) -> bytes:
    handset.send(request)
    seen = gateway.receive()
    gateway.send(seen[::-1])
    return handset.receive()


def _snap(gateway, mutation=0):
    return capture_connection("s-00", gateway, ticket=b"t" * 16,
                              battery_remaining_mj=1234.5, mutation=mutation)


class TestCodec:
    def test_round_trip_is_exact(self):
        channel = DuplexChannel()
        handset, gateway = _make_world(RSA_WITH_AES_SHA, channel)
        _exchange(handset, gateway, b"warm-up")
        snapshot = _snap(gateway, mutation=4)
        decoded = SessionSnapshot.from_bytes(snapshot.to_bytes())
        assert decoded == snapshot
        assert decoded.battery_remaining_uj == 1_234_500
        assert decoded.mutation == 4

    @pytest.mark.parametrize("damage",
                             ["truncate", "trailing", "version", "v1"])
    def test_damaged_blobs_raise_value_error(self, damage):
        channel = DuplexChannel()
        _, gateway = _make_world(RSA_WITH_AES_SHA, channel)
        raw = _snap(gateway).to_bytes()
        if damage == "truncate":
            raw = raw[:-3]
        elif damage == "trailing":
            raw = raw + b"\x00"
        elif damage == "v1":
            # The pre-trace-context layout: no trailing trace_ctx field.
            raw = bytes([1]) + raw[1:-2]
        else:
            raw = bytes([99]) + raw[1:]
        with pytest.raises(ValueError):
            SessionSnapshot.from_bytes(raw)


class TestVersionCompat:
    def test_v2_carries_trace_context(self):
        channel = DuplexChannel()
        _, gateway = _make_world(RSA_WITH_AES_SHA, channel)
        snapshot = capture_connection(
            "s-00", gateway, trace_ctx=b"\x01ctx-bytes")
        decoded = SessionSnapshot.from_bytes(snapshot.to_bytes())
        assert decoded.trace_ctx == b"\x01ctx-bytes"


class TestCrashEquivalence:
    @pytest.mark.parametrize("suite", ALL_SUITES, ids=lambda s: s.name)
    @pytest.mark.parametrize("path", ["fast", "reference"])
    @settings(max_examples=5, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=120),
                             min_size=1, max_size=5),
           cut_raw=st.integers(min_value=0, max_value=5))
    def test_checkpoint_restore_continue_is_byte_identical(
            self, suite, path, payloads, cut_raw):
        cut = cut_raw % (len(payloads) + 1)
        with fastpath.force(path == "fast"):
            # The uninterrupted world.
            chan_u = DuplexChannel()
            handset_u, gateway_u = _make_world(suite, chan_u)
            replies_u = [_exchange(handset_u, gateway_u, p)
                         for p in payloads]

            # The crashed world: checkpoint after `cut` exchanges, kill
            # the gateway, restore from serialized bytes on a fresh
            # endpoint, continue.
            chan_c = DuplexChannel()
            handset_c, gateway_c = _make_world(suite, chan_c)
            replies_c = [_exchange(handset_c, gateway_c, p)
                         for p in payloads[:cut]]
            blob = _snap(gateway_c, mutation=cut).to_bytes()
            del gateway_c
            restored = restore_connection(
                SessionSnapshot.from_bytes(blob), chan_c.endpoint_b())
            replies_c += [_exchange(handset_c, restored, p)
                          for p in payloads[cut:]]

        assert replies_c == replies_u
        # The strongest form: the wire itself is byte-identical.
        assert chan_c.log == chan_u.log
        # And the crash neither replayed nor skipped a sequence.
        assert handset_c.decoder.received == len(payloads)
        assert handset_c.discarded == 0
        assert handset_c.decoder.records_lost == 0


class TestKeystreamOffset:
    """Stream suites re-key every WTLS record from ``key XOR
    sequence``, so the snapshot's sequence counters *are* the
    keystream offset.  The pin: after restore, the next outbound
    record must decrypt under a cipher derived independently from the
    snapshot's ``enc_sequence`` — off by one record, and every later
    record would run against the wrong keystream."""

    @pytest.mark.parametrize(
        "suite", LIGHTWEIGHT_SUITES + [RSA_WITH_RC4_SHA],
        ids=lambda s: s.name)
    def test_snapshot_pins_keystream_position(self, suite):
        channel = DuplexChannel()
        handset, gateway = _make_world(suite, channel)
        for i in range(3):
            _exchange(handset, gateway, bytes([i]) * 20)
        snapshot = _snap(gateway)
        assert snapshot.enc_sequence == gateway.encoder._sequence
        del gateway
        restored = restore_connection(
            SessionSnapshot.from_bytes(snapshot.to_bytes()),
            channel.endpoint_b())

        handset.send(b"after-restore")
        assert restored.receive() == b"after-restore"
        reply = b"keystream-offset-pin"
        restored.send(reply)

        # Open the raw datagram with a cipher derived from the
        # *snapshot*, not from the live encoder: the gateway-side
        # (server) cipher key XOR the wire sequence number.
        raw = handset.endpoint.receive()
        sequence = int.from_bytes(raw[:4], "big")
        assert sequence == snapshot.enc_sequence  # no skip requested
        keys = _key_block(suite)
        key_int = int.from_bytes(keys.server_cipher_key, "big")
        stream = suite.make_cipher(
            (key_int ^ sequence).to_bytes(suite.cipher_key_bytes, "big"))
        opened = stream.process(raw[6:])
        assert opened[:len(reply)] == reply
    """The torn-tail compensation: a stale checkpoint must leapfrog
    sequences the dead shard consumed after its last durable frame."""

    def _stale_restore(self, sequence_skip):
        channel = DuplexChannel()
        handset, gateway = _make_world(RSA_WITH_AES_SHA, channel)
        _exchange(handset, gateway, b"one")
        blob = _snap(gateway).to_bytes()
        # The dead shard sent one more reply after the checkpoint —
        # the handset has consumed that sequence number already.
        _exchange(handset, gateway, b"two")
        restored = restore_connection(
            SessionSnapshot.from_bytes(blob), channel.endpoint_b(),
            sequence_skip=sequence_skip)
        return handset, restored

    def test_without_skip_the_handset_rejects_the_replayed_sequence(self):
        handset, restored = self._stale_restore(sequence_skip=0)
        handset.send(b"three")
        restored.receive()
        restored.send(b"reply")
        # Replay protection fires: the dead shard already used that
        # sequence number for the post-checkpoint reply.
        with pytest.raises(ReplayError):
            handset.receive()

    def test_with_skip_the_restored_shard_is_accepted(self):
        handset, restored = self._stale_restore(sequence_skip=8)
        handset.send(b"three")
        assert restored.receive() == b"three"
        restored.send(b"reply")
        assert handset.receive() == b"reply"
        assert handset.discarded == 0
