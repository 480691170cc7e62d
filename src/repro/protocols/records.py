"""Record layer: sequence-numbered, MAC-then-encrypt framing.

The transport-layer protection shared by mini-TLS and WTLS (§2's
"secure transport service interface").  Each record is::

    type(1) | length(2) | ciphertext( payload | HMAC(mac_key, seq |
    type | length | payload) [| CBC padding] )

MAC-then-encrypt with an explicit 64-bit implicit sequence number, per
the SSL 3.0/TLS 1.0 design the paper's era used.  Tampering, record
reordering, and truncation all surface as
:class:`~repro.protocols.alerts.BadRecordMAC`.

The record-layer core both framings share lives in
:mod:`repro.protocols.records_batch`: each codec compiles its suite
into closures once at construction, the single-record and batched
calls here run the same pipeline (the both-path rule), and their
traced branches are
:func:`~repro.protocols.records_batch.trace_record` and
:func:`~repro.protocols.records_batch.trace_batch`.  This module keeps
the TLS header parsing and the codec state.  Decoder state is
transactional — a record that fails verification leaves the sequence
number, CBC residue chain, and stream keystream position untouched, so
one tampered record cannot poison the valid records behind it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..crypto.hmac import HMAC
from ..crypto.modes import CBC
from ..observability import probe
from . import records_batch
from .alerts import DecodeError
from .ciphersuites import CipherSuite
from .kdf import KeyBlock

CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION = 23
CONTENT_ALERT = 21

#: Re-exported: TLS 1.0 §6.2.1 plaintext fragment ceiling.
MAX_FRAGMENT = records_batch.MAX_FRAGMENT


def _init_codec(codec, suite: CipherSuite, cipher_key: bytes,
                mac_key: bytes, iv: bytes) -> None:
    """Set up one direction's suite, MAC, sequence and cipher state."""
    codec.suite = suite
    # One keyed HMAC per connection direction; per-record MACs clone
    # its precomputed pad states instead of rekeying (the record-layer
    # half of the fast-path key-schedule caching).
    codec._mac_base = HMAC(mac_key, suite.hash_factory)
    codec._sequence = 0
    codec._cipher = codec._stream = codec._cbc = None
    if suite.cipher == "NULL":
        return
    codec._cipher = suite.make_cipher(cipher_key)
    if suite.cipher_kind == "stream":
        codec._stream = codec._cipher
    else:
        # One CBC context for the connection's lifetime: records chain
        # the residue IV (TLS 1.0 discipline) instead of rebuilding the
        # mode object per record.
        codec._cbc = CBC(codec._cipher, iv)


class RecordEncoder:
    """One direction of record protection (write side)."""

    #: Span attribute distinguishing mini-TLS from WTLS record paths.
    layer = "tls"

    def __init__(self, suite: CipherSuite, cipher_key: bytes, mac_key: bytes,
                 iv: bytes) -> None:
        _init_codec(self, suite, cipher_key, mac_key, iv)
        self._encode_one, self._encode_span = \
            records_batch.compile_tls_encoder(self)

    @property
    def sequence(self) -> int:
        """Next record's implicit sequence number (diagnostics: how far
        a session got; a failed send leaves it unchanged)."""
        return self._sequence

    def encode(self, content_type: int, payload: bytes) -> bytes:
        """Protect one payload into a wire record."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._encode_one(content_type, payload)
        return records_batch.trace_record(
            telemetry, self, "record.encode", len(payload),
            getattr(self._cipher, "recorder", None),
            self._encode_one, content_type, payload)

    def encode_batch(self, items: Iterable[Tuple[int, bytes]],
                     max_fragment: int = MAX_FRAGMENT) -> bytes:
        """Protect N ``(content_type, payload)`` items into one buffer.

        See :func:`repro.protocols.records_batch.encode_batch`."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return records_batch.encode_batch(self, items, max_fragment)[0]
        return records_batch.trace_batch(
            telemetry, self, "record.encode_batch", records_batch.encode_batch,
            self, items, max_fragment)


class RecordDecoder:
    """One direction of record protection (read side).

    Decoding is transactional: sequence number, CBC residue IV, and
    stream keystream position commit only after the record's MAC
    verifies, so a tampered record is rejected without desynchronising
    the decoder for later genuine records."""

    #: Span attribute distinguishing mini-TLS from WTLS record paths.
    layer = "tls"

    def __init__(self, suite: CipherSuite, cipher_key: bytes, mac_key: bytes,
                 iv: bytes) -> None:
        _init_codec(self, suite, cipher_key, mac_key, iv)
        self._decode_one, self._decode_span = \
            records_batch.compile_tls_decoder(self)

    @property
    def sequence(self) -> int:
        """Next expected record sequence number (diagnostics)."""
        return self._sequence

    def decode(self, record: bytes) -> Tuple[int, bytes]:
        """Verify and open one wire record -> (content_type, payload)."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._decode(record)
        return records_batch.trace_record(
            telemetry, self, "record.decode", len(record),
            getattr(self._cipher, "recorder", None), self._decode, record)

    def _decode(self, record: bytes) -> Tuple[int, bytes]:
        if len(record) < 3:
            raise DecodeError("record shorter than header")
        length = int.from_bytes(record[1:3], "big")
        if len(record) - 3 != length:
            raise DecodeError(
                f"record length field {length} != body {len(record) - 3}"
            )
        return self._decode_one(record[0], memoryview(record)[3:])

    def decode_batch(self, buffer: bytes) -> List[Tuple[int, bytes]]:
        """Open a buffer of concatenated records -> ``[(type, payload)]``.

        Walks the buffer with ``memoryview`` slices (record bodies are
        never copied before the cipher/MAC consume them).  A failing
        record raises
        :class:`~repro.protocols.records_batch.BatchRecordError`
        carrying everything decoded before it; thanks to the
        transactional decoder the caller can resume — a retransmission
        of the genuine record will verify."""
        telemetry = probe.active
        if telemetry is None:          # hot path: one read, one branch
            return self._decode_span(memoryview(buffer))[0]
        return records_batch.trace_batch(
            telemetry, self, "record.decode_batch", self._decode_span,
            memoryview(buffer), n=len(buffer))


def make_record_pair(suite: CipherSuite, keys: KeyBlock,
                     is_client: bool) -> Tuple[RecordEncoder, RecordDecoder]:
    """Build this side's (encoder, decoder) from the key block."""
    if is_client:
        encoder = RecordEncoder(
            suite, keys.client_cipher_key, keys.client_mac_key, keys.client_iv)
        decoder = RecordDecoder(
            suite, keys.server_cipher_key, keys.server_mac_key, keys.server_iv)
    else:
        encoder = RecordEncoder(
            suite, keys.server_cipher_key, keys.server_mac_key, keys.server_iv)
        decoder = RecordDecoder(
            suite, keys.client_cipher_key, keys.client_mac_key, keys.client_iv)
    return encoder, decoder
