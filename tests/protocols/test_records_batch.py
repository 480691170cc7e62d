"""Batched record plane: equivalence, transactional state, wrap guards.

The three confirmed record-layer bugs this PR fixes are pinned here:

* raw ``OverflowError`` on oversized payloads -> ``RecordOverflow``
  (and ``encode_batch`` auto-fragments instead);
* CBC residue IV committed before MAC verification, poisoning every
  later valid record -> transactional decoder state;
* raw ``OverflowError`` on sequence-counter wrap (TLS 64-bit MAC
  header, WTLS 32-bit wire field) -> ``RenegotiationRequired``.

Plus the both-path property: ``encode_batch``/``decode_batch`` are
byte-identical to N sequential ``encode``/``decode`` calls on every
suite and both dispatch paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastpath
from repro.crypto.trace import TraceRecorder
from repro.observability import probe
from repro.observability.attribution import record_cycles
from repro.observability.spans import Telemetry
from repro.protocols import records_batch
from repro.protocols.alerts import (
    BadRecordMAC,
    DecodeError,
    RecordOverflow,
    RenegotiationRequired,
)
from repro.protocols.ciphersuites import (
    ALL_SUITES,
    NULL_WITH_SHA,
    RSA_WITH_AES_SHA,
    RSA_WITH_RC4_MD5,
)
from repro.protocols.kdf import KeyBlock
from repro.protocols.records import (
    CONTENT_APPLICATION,
    RecordDecoder,
    RecordEncoder,
)
from repro.protocols.records_batch import (
    MAX_FRAGMENT,
    TLS_MAX_SEQUENCE,
    WTLS_MAX_SEQUENCE,
    BatchRecordError,
)
from repro.protocols.reliable import (
    KIND_DATA,
    MAX_FRAME_PAYLOAD,
    FrameTooLarge,
    encode_frame,
)
from repro.protocols.wtls import WTLSRecordDecoder, WTLSRecordEncoder


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


def _tls_pair(suite):
    keys = _key_block(suite)
    return (RecordEncoder(suite, keys.client_cipher_key,
                          keys.client_mac_key, keys.client_iv),
            RecordDecoder(suite, keys.client_cipher_key,
                          keys.client_mac_key, keys.client_iv))


def _wtls_pair(suite):
    keys = _key_block(suite)
    return (WTLSRecordEncoder(suite, keys.client_cipher_key,
                              keys.client_mac_key, keys.client_iv),
            WTLSRecordDecoder(suite, keys.client_cipher_key,
                              keys.client_mac_key, keys.client_iv))


# ---------------------------------------------------------------------------
# The both-path equivalence property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ALL_SUITES, ids=lambda s: s.name)
@pytest.mark.parametrize("path", ["fast", "reference"])
@settings(max_examples=5, deadline=None)
@given(payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=3))
def test_batch_equals_sequential(suite, path, payloads):
    with fastpath.force(path == "fast"):
        enc_single, dec_single = _tls_pair(suite)
        enc_batch, dec_batch = _tls_pair(suite)
        sequential = [enc_single.encode(CONTENT_APPLICATION, p)
                      for p in payloads]
        batch = enc_batch.encode_batch(
            [(CONTENT_APPLICATION, p) for p in payloads])
        assert batch == b"".join(sequential)
        assert dec_batch.decode_batch(batch) == [
            dec_single.decode(record) for record in sequential]

        wenc_single, wdec_single = _wtls_pair(suite)
        wenc_batch, wdec_batch = _wtls_pair(suite)
        sequential = [wenc_single.encode(p) for p in payloads]
        batch = wenc_batch.encode_batch(payloads)
        assert batch == b"".join(sequential)
        records, damaged = wdec_batch.decode_batch(batch)
        assert not damaged
        assert records == [wdec_single.decode(record)
                           for record in sequential]


def test_batch_of_one_is_byte_identical_to_single():
    enc_a, _ = _tls_pair(RSA_WITH_AES_SHA)
    enc_b, _ = _tls_pair(RSA_WITH_AES_SHA)
    payload = bytes(range(200)) * 3
    assert (enc_a.encode_batch([(CONTENT_APPLICATION, payload)])
            == enc_b.encode(CONTENT_APPLICATION, payload))


# ---------------------------------------------------------------------------
# Record spans: names, exact attributes and charged cycles
# ---------------------------------------------------------------------------


def _record_spans(telemetry):
    return [(span.name, span.attrs, span.cycles)
            for span in telemetry.spans if span.name.startswith("record.")]


def _tampered(wire):
    return wire[:-1] + bytes([wire[-1] ^ 0x01])


_SPAN_SUITES = [RSA_WITH_AES_SHA, RSA_WITH_RC4_MD5, NULL_WITH_SHA]


@pytest.mark.parametrize("suite", _SPAN_SUITES, ids=lambda s: s.name)
@pytest.mark.parametrize("path", ["fast", "reference"])
def test_tls_record_spans_pin_attributes_and_cycles(suite, path):
    def cycles(n):
        return record_cycles(suite.cipher, suite.mac, n)

    base = {"layer": "tls", "suite": suite.name, "path": path}
    telemetry = Telemetry()
    with fastpath.force(path == "fast"), probe.activate(telemetry):
        encoder, decoder = _tls_pair(suite)
        record = encoder.encode(CONTENT_APPLICATION, b"a" * 100)
        decoder.decode(record)
        batch = encoder.encode_batch([(CONTENT_APPLICATION, b"b" * 50),
                                      (CONTENT_APPLICATION, b"c" * 150)],
                                     max_fragment=64)
        assert len(decoder.decode_batch(batch)) == 4
        good = encoder.encode(CONTENT_APPLICATION, b"d" * 30)
        with pytest.raises(BadRecordMAC):
            decoder.decode(_tampered(good))
        decoder.decode(good)  # a failed record commits no decoder state
        bad_batch = _tampered(encoder.encode_batch(
            [(CONTENT_APPLICATION, b"e" * 40), (CONTENT_APPLICATION, b"f")]))
        with pytest.raises(BatchRecordError):
            decoder.decode_batch(bad_batch)
        with pytest.raises(RecordOverflow):  # encode charges before sealing
            encoder.encode(CONTENT_APPLICATION, b"g" * (MAX_FRAGMENT + 1))
    assert _record_spans(telemetry) == [
        ("record.encode", {**base, "n": 100}, cycles(100)),
        ("record.decode", {**base, "n": len(record)}, cycles(100)),
        ("record.encode_batch", {**base, "records": 4, "n": 200},
         cycles(200)),
        ("record.decode_batch", {**base, "n": len(batch), "records": 4},
         cycles(200)),
        ("record.encode", {**base, "n": 30}, cycles(30)),
        ("record.decode", {**base, "n": len(good),
                           "error": "BadRecordMAC"}, 0.0),
        ("record.decode", {**base, "n": len(good)}, cycles(30)),
        ("record.encode_batch", {**base, "records": 2, "n": 41}, cycles(41)),
        ("record.decode_batch", {**base, "n": len(bad_batch),
                                 "error": "BadRecordMAC", "index": 1}, 0.0),
        ("record.encode", {**base, "n": MAX_FRAGMENT + 1},
         cycles(MAX_FRAGMENT + 1)),
    ]


def test_tls_record_span_path_follows_the_cipher_recorder():
    # An attached side-channel recorder forces the cipher onto the
    # reference loops, and the single-record spans say so.
    telemetry = Telemetry()
    with fastpath.force(True), probe.activate(telemetry):
        encoder, decoder = _tls_pair(RSA_WITH_AES_SHA)
        encoder._cipher.recorder = TraceRecorder()
        decoder.decode_batch(
            encoder.encode_batch([(CONTENT_APPLICATION, b"h" * 16)]))
        decoder.decode(encoder.encode(CONTENT_APPLICATION, b"i" * 16))
    assert [(name, attrs["path"])
            for name, attrs, _ in _record_spans(telemetry)] == [
        ("record.encode_batch", "fast"),
        ("record.decode_batch", "fast"),
        ("record.encode", "reference"),
        ("record.decode", "fast"),
    ]


@pytest.mark.parametrize("suite", _SPAN_SUITES, ids=lambda s: s.name)
@pytest.mark.parametrize("path", ["fast", "reference"])
def test_wtls_record_spans_pin_attributes_and_cycles(suite, path):
    def cycles(n):
        return record_cycles(suite.cipher, suite.mac, n)

    base = {"layer": "wtls", "suite": suite.name, "path": path}
    telemetry = Telemetry()
    with fastpath.force(path == "fast"), probe.activate(telemetry):
        encoder, decoder = _wtls_pair(suite)
        record = encoder.encode(b"a" * 100)
        decoder.decode(record)
        batch = encoder.encode_batch([b"b" * 50, b"c" * 150],
                                     max_fragment=64)
        assert decoder.decode_batch(batch)[1] == []
        bad = _tampered(encoder.encode(b"d" * 30))
        with pytest.raises(BadRecordMAC):
            decoder.decode(bad)
        bad_batch = _tampered(encoder.encode_batch([b"e" * 40, b"f"]))
        with pytest.raises(BatchRecordError):
            decoder.decode_batch(bad_batch)
        lossy = _tampered(encoder.encode_batch([b"j" * 20, b"k" * 25,
                                                b"l" * 5]))
        opened, damaged = decoder.decode_batch(lossy, skip_damaged=True)
        assert len(opened) == 2 and len(damaged) == 1
        with pytest.raises(RecordOverflow):  # encode charges before sealing
            encoder.encode(b"g" * (MAX_FRAGMENT + 1))
    assert _record_spans(telemetry) == [
        ("record.encode", {**base, "n": 100}, cycles(100)),
        ("record.decode", {**base, "n": len(record)}, cycles(100)),
        ("record.encode_batch", {**base, "records": 4, "n": 200},
         cycles(200)),
        ("record.decode_batch", {**base, "n": len(batch), "records": 4,
                                 "damaged": 0}, cycles(200)),
        ("record.encode", {**base, "n": 30}, cycles(30)),
        ("record.decode", {**base, "n": len(bad),
                           "error": "BadRecordMAC"}, 0.0),
        ("record.encode_batch", {**base, "records": 2, "n": 41}, cycles(41)),
        ("record.decode_batch", {**base, "n": len(bad_batch),
                                 "error": "BadRecordMAC", "index": 1}, 0.0),
        ("record.encode_batch", {**base, "records": 3, "n": 50}, cycles(50)),
        ("record.decode_batch", {**base, "n": len(lossy), "records": 2,
                                 "damaged": 1}, cycles(45)),
        ("record.encode", {**base, "n": MAX_FRAGMENT + 1},
         cycles(MAX_FRAGMENT + 1)),
    ]


# ---------------------------------------------------------------------------
# Bugfix 1: oversized payloads -> RecordOverflow, batch auto-fragments
# ---------------------------------------------------------------------------


def _assert_ceiling_guarded(suite):
    encoder, _ = _tls_pair(suite)
    with pytest.raises(RecordOverflow):
        encoder.encode(CONTENT_APPLICATION, b"\xA5" * 65530)
    # The guard is the TLS 2^14 fragment ceiling, not the field width.
    with pytest.raises(RecordOverflow):
        encoder.encode(CONTENT_APPLICATION, b"\xA5" * (MAX_FRAGMENT + 1))
    assert encoder.sequence == 0  # failed sends commit nothing


def test_oversized_payload_raises_record_overflow_not_overflow_error():
    # A 65530-byte payload + 16-byte MAC overflows the 2-byte length
    # field and once crashed with a raw OverflowError.
    _assert_ceiling_guarded(RSA_WITH_RC4_MD5)


def test_mac_helper_guards_the_same_ceiling():
    # The cipherless suite only runs the MAC step; the same ceiling
    # must hold there, checked through the real encode path.
    _assert_ceiling_guarded(NULL_WITH_SHA)


def test_ceiling_sized_payload_still_encodes():
    encoder, decoder = _tls_pair(RSA_WITH_RC4_MD5)
    payload = b"\x5A" * MAX_FRAGMENT
    assert decoder.decode(encoder.encode(CONTENT_APPLICATION, payload)) == \
        (CONTENT_APPLICATION, payload)


def test_encode_batch_auto_fragments_oversized_payloads():
    encoder, decoder = _tls_pair(RSA_WITH_RC4_MD5)
    payload = bytes((i * 7) % 256 for i in range(65530))
    batch = encoder.encode_batch([(CONTENT_APPLICATION, payload)])
    records = decoder.decode_batch(batch)
    assert len(records) == 4  # ceil(65530 / 16384)
    assert all(t == CONTENT_APPLICATION for t, _ in records)
    assert b"".join(p for _, p in records) == payload


def test_wtls_encode_batch_auto_fragments():
    encoder, decoder = _wtls_pair(RSA_WITH_AES_SHA)
    payload = bytes((i * 11) % 256 for i in range(40000))
    with pytest.raises(RecordOverflow):
        encoder.encode(payload)
    batch = encoder.encode_batch([payload])
    records, damaged = decoder.decode_batch(batch)
    assert not damaged
    assert len(records) == 3  # ceil(40000 / 16384)
    assert b"".join(p for _, p in records) == payload


# ---------------------------------------------------------------------------
# Bugfix 2: transactional decoder state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite", [RSA_WITH_AES_SHA, RSA_WITH_RC4_MD5, NULL_WITH_SHA],
    ids=lambda s: s.name)
def test_tampered_record_does_not_poison_valid_successors(suite):
    # Repro from the issue: tamper record 1, and record 2 used to fail
    # despite being authentic (the CBC residue IV advanced on failure).
    encoder, decoder = _tls_pair(suite)
    records = [encoder.encode(CONTENT_APPLICATION, f"rec-{i}".encode() * 20)
               for i in range(3)]
    assert decoder.decode(records[0])[1].startswith(b"rec-0")
    tampered = bytearray(records[1])
    tampered[-1] ^= 0x01
    with pytest.raises(BadRecordMAC):
        decoder.decode(bytes(tampered))
    # A retransmission of the genuine record verifies: nothing committed.
    assert decoder.decode(records[1])[1].startswith(b"rec-1")
    assert decoder.decode(records[2])[1].startswith(b"rec-2")


def test_failed_decode_commits_no_state():
    encoder, decoder = _tls_pair(RSA_WITH_AES_SHA)
    record = bytearray(encoder.encode(CONTENT_APPLICATION, b"p" * 100))
    record[10] ^= 0xFF
    iv_before = decoder._cbc.iv
    with pytest.raises(BadRecordMAC):
        decoder.decode(bytes(record))
    assert decoder._cbc.iv == iv_before
    assert decoder.sequence == 0


def test_stream_decoder_restores_keystream_position():
    encoder, decoder = _tls_pair(RSA_WITH_RC4_MD5)
    good = [encoder.encode(CONTENT_APPLICATION, bytes([i]) * 64)
            for i in range(2)]
    tampered = bytearray(good[0])
    tampered[-1] ^= 0x80
    with pytest.raises(BadRecordMAC):
        decoder.decode(bytes(tampered))
    # The failed attempt consumed no RC4 keystream.
    assert decoder.decode(good[0]) == (CONTENT_APPLICATION, b"\x00" * 64)
    assert decoder.decode(good[1]) == (CONTENT_APPLICATION, b"\x01" * 64)


def test_batch_error_carries_neighbours_and_supports_resume():
    encoder, decoder = _tls_pair(RSA_WITH_AES_SHA)
    payloads = [f"payload-{i}".encode() for i in range(3)]
    records = [encoder.encode(CONTENT_APPLICATION, p) for p in payloads]
    tampered = bytearray(records[1])
    tampered[-1] ^= 0x01
    with pytest.raises(BatchRecordError) as excinfo:
        decoder.decode_batch(records[0] + bytes(tampered) + records[2])
    err = excinfo.value
    assert err.index == 1
    assert err.decoded == [(CONTENT_APPLICATION, payloads[0])]
    assert isinstance(err.cause, BadRecordMAC)
    # Retransmission of the genuine records completes the batch.
    assert decoder.decode(records[1]) == (CONTENT_APPLICATION, payloads[1])
    assert decoder.decode(records[2]) == (CONTENT_APPLICATION, payloads[2])


def test_truncated_batch_raises_batch_error_with_decode_cause():
    encoder, decoder = _tls_pair(NULL_WITH_SHA)
    batch = encoder.encode_batch([(CONTENT_APPLICATION, b"a" * 50),
                                  (CONTENT_APPLICATION, b"b" * 50)])
    with pytest.raises(BatchRecordError) as excinfo:
        decoder.decode_batch(batch[:-1])
    assert excinfo.value.index == 1
    assert isinstance(excinfo.value.cause, DecodeError)
    assert excinfo.value.decoded == [(CONTENT_APPLICATION, b"a" * 50)]


def test_wtls_batch_skips_damaged_and_delivers_neighbours():
    encoder, decoder = _wtls_pair(RSA_WITH_AES_SHA)
    records = [encoder.encode(f"dgram-{i}".encode()) for i in range(3)]
    tampered = bytearray(records[1])
    tampered[-1] ^= 0x01
    batch = records[0] + bytes(tampered) + records[2]
    opened, damaged = decoder.decode_batch(batch, skip_damaged=True)
    assert [p for _, p in opened] == [b"dgram-0", b"dgram-2"]
    assert len(damaged) == 1 and isinstance(damaged[0], BadRecordMAC)
    # Strict mode surfaces the same failure as a batch error instead.
    encoder2, decoder2 = _wtls_pair(RSA_WITH_AES_SHA)
    records2 = [encoder2.encode(f"dgram-{i}".encode()) for i in range(3)]
    tampered2 = bytearray(records2[1])
    tampered2[-1] ^= 0x01
    with pytest.raises(BatchRecordError):
        decoder2.decode_batch(records2[0] + bytes(tampered2) + records2[2])


def _session_configs(ca, server_credentials, seed):
    from repro.crypto.rng import DeterministicDRBG
    from repro.protocols.handshake import ClientConfig, ServerConfig

    key, cert = server_credentials
    return (ClientConfig(rng=DeterministicDRBG(seed + "-c"), ca=ca),
            ServerConfig(rng=DeterministicDRBG(seed + "-s"),
                         certificate=cert, private_key=key))


def test_wtls_receive_next_still_skips_and_continues(
        ca, server_credentials):
    from repro.protocols.wtls import wtls_connect

    client_cfg, server_cfg = _session_configs(
        ca, server_credentials, "batch-skip")
    client, server = wtls_connect(client_cfg, server_cfg)
    client.send(b"zero")
    damaged = bytearray(client.encoder.encode(b"damaged"))
    damaged[-1] ^= 0x01
    client.endpoint.send(bytes(damaged))
    client.send(b"two")
    assert server.receive_next() == b"zero"
    assert server.receive_next() == b"two"
    assert server.discarded == 1


def test_wtls_receive_next_rejects_a_negative_skip_budget(
        ca, server_credentials):
    from repro.protocols.wtls import wtls_connect

    client_cfg, server_cfg = _session_configs(
        ca, server_credentials, "batch-skip-budget")
    client, server = wtls_connect(client_cfg, server_cfg)
    client.send(b"kept")
    with pytest.raises(ValueError, match="max_skip"):
        server.receive_next(max_skip=-1)
    # The refusal consumed nothing: the queued datagram still arrives.
    assert server.receive_next(max_skip=0) == b"kept"
    assert server.discarded == 0


# ---------------------------------------------------------------------------
# Bugfix 3: sequence-counter wrap -> RenegotiationRequired
# ---------------------------------------------------------------------------


def test_tls_sequence_wrap_raises_renegotiation_required():
    encoder, decoder = _tls_pair(NULL_WITH_SHA)
    encoder._sequence = TLS_MAX_SEQUENCE
    decoder._sequence = TLS_MAX_SEQUENCE
    last = encoder.encode(CONTENT_APPLICATION, b"final")  # boundary: fits
    assert decoder.decode(last) == (CONTENT_APPLICATION, b"final")
    with pytest.raises(RenegotiationRequired):
        encoder.encode(CONTENT_APPLICATION, b"one too many")
    with pytest.raises(RenegotiationRequired):
        decoder._decode_one(CONTENT_APPLICATION, b"")


def test_wtls_sequence_wrap_raises_renegotiation_required():
    encoder, decoder = _wtls_pair(NULL_WITH_SHA)
    encoder._sequence = WTLS_MAX_SEQUENCE
    last = encoder.encode(b"final")  # the boundary value still fits
    sequence, payload = decoder.decode(last)
    assert (sequence, payload) == (WTLS_MAX_SEQUENCE, b"final")
    with pytest.raises(RenegotiationRequired):
        encoder.encode(b"one too many")


# ---------------------------------------------------------------------------
# Batched connections and transports
# ---------------------------------------------------------------------------


def test_secure_connection_batch_roundtrip(ca, server_credentials):
    from repro.protocols.tls import connect

    client_cfg, server_cfg = _session_configs(
        ca, server_credentials, "batch-tls")
    client, server = connect(client_cfg, server_cfg)
    payloads = [f"req-{i}".encode() * 10 for i in range(5)]
    client.send_batch(payloads)
    assert server.receive_batch() == payloads
    assert server.bytes_received == sum(len(p) for p in payloads)
    # Interleaves transparently with the single-record API.
    server.send(b"reply")
    assert client.receive() == b"reply"


def test_wtls_connection_batch_roundtrip(ca, server_credentials):
    from repro.protocols.wtls import wtls_connect

    client_cfg, server_cfg = _session_configs(
        ca, server_credentials, "batch-wtls")
    client, server = wtls_connect(client_cfg, server_cfg)
    payloads = [f"dgram-{i}".encode() for i in range(4)]
    client.send_batch(payloads)
    assert server.receive_batch() == payloads
    assert server.discarded == 0


def test_frame_too_large_raises_cleanly():
    with pytest.raises(FrameTooLarge):
        encode_frame(KIND_DATA, 0, b"\x00" * (MAX_FRAME_PAYLOAD + 1))
    assert encode_frame(KIND_DATA, 0, b"\x00" * 10)  # small frames fine


def test_gateway_reply_batching_matches_unbatched_ledger():
    from repro.protocols.gateway_runtime import (
        RuntimeConfig,
        build_gateway_runtime_world,
    )

    def run_world(reply_batch):
        runtime, handsets, _ = build_gateway_runtime_world(
            sessions=2, config=RuntimeConfig(reply_batch=reply_batch))
        for i in range(6):
            session_id = f"handset-{i % 2:02d}"
            handsets[session_id].send(f"ping-{i}".encode())
            runtime.submit(session_id, "origin.example",
                           arrival_offset_s=0.1 * i)
        stats = runtime.run()
        replies = {}
        for session_id, conn in handsets.items():
            if reply_batch == 1:
                replies[session_id] = [conn.receive() for _ in range(3)]
            else:
                batches = []
                while len(batches) < 3:
                    batches.extend(conn.receive_batch())
                replies[session_id] = batches
        return stats, replies

    unbatched_stats, unbatched_replies = run_world(reply_batch=1)
    batched_stats, batched_replies = run_world(reply_batch=2)
    assert batched_replies == unbatched_replies
    assert batched_stats.served == unbatched_stats.served == 6
    assert batched_stats.energy_mj == unbatched_stats.energy_mj
