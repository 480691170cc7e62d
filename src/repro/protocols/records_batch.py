"""Record-layer core shared by mini-TLS and WTLS.

The paper frames security processing as a *throughput* problem: thin
appliances must push protected records as fast as the hardware allows
(§3.2's processing-gap numbers are records-per-second numbers), and it
treats mini-TLS and WTLS as one "secure transport service interface"
(§2).  This module is the one record pipeline behind both framings'
codec classes (:mod:`repro.protocols.records`,
:mod:`repro.protocols.wtls`), which keep only their header parsing and
the probe check:

* **precompiled per-suite closures** — each encoder/decoder compiles
  its suite's seal/open pipeline once at construction, so the per
  record work is the crypto plus a couple of attribute stores, with no
  per-record dispatch over ``suite.cipher_kind``;
* **one amortized HMAC pad-state clone chain** — the connection's
  keyed :class:`~repro.crypto.hmac.HMAC` is built once and every
  record MAC is two hash-state clones (:meth:`HMAC.mac`), never a
  re-key;
* **a single carried CBC context** — TLS block suites keep one
  :class:`~repro.crypto.modes.CBC` per direction and chain the residue
  (:meth:`CBC.encrypt_next` / :meth:`CBC.decrypt_next`) instead of
  building a fresh mode object per record; WTLS derives each record's
  key or IV from the sequence number in one place (:func:`_wtls_crypt`);
* **memoryview framing** — the decoders' span walks cross one buffer
  with ``memoryview`` slices; record bodies are never copied out of the
  batch buffer before the cipher/MAC consume them;
* **one fragment loop and one traced branch per call shape** —
  :func:`fragment_walk` splits oversized payloads for both encoders,
  and :func:`trace_record` / :func:`trace_batch` hold the span,
  attribute and cycle-charging logic of every record call.  The codec
  methods read ``probe.active`` once and, while it is ``None``, call
  the compiled closure directly.

Transactional decoder contract
------------------------------

A record that fails verification must leave the decoder exactly as it
was: the CBC residue IV is committed only after the MAC check passes
(:meth:`CBC.decrypt_next` with ``commit=False``), stream-cipher
keystream position is snapshotted and restored on failure, and the
implicit sequence number advances only on success.  This is what makes
batches safe — one tampered record in a batch surfaces as a
:class:`BatchRecordError` without poisoning its neighbours — and it
fixes the single-record bug where a tampered record permanently
desynchronised the CBC chain for every later *valid* record.

Both-path rule: the single-record ``encode``/``decode`` API delegates
to the same compiled closures, so the differential oracles and the
official-vector corpus exercise the batched pipeline even when driven
one record at a time.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..crypto import fastpath
from ..crypto.bitops import constant_time_compare
from ..crypto.errors import InvalidBlockSize, PaddingError
from ..crypto.hmac import HMAC
from ..crypto.modes import CBC
from ..observability.attribution import record_cycles
from .alerts import (
    BadRecordMAC,
    DecodeError,
    ProtocolAlert,
    RecordOverflow,
    RenegotiationRequired,
    ReplayError,
)

#: TLS 1.0 §6.2.1 plaintext fragment ceiling (2^14 bytes).
MAX_FRAGMENT = 1 << 14
#: Last sequence number the TLS MAC header's 64-bit field can carry.
TLS_MAX_SEQUENCE = (1 << 64) - 1
#: Last sequence number WTLS's explicit 32-bit wire field can carry.
WTLS_MAX_SEQUENCE = (1 << 32) - 1
#: WTLS truncates record MACs to 10 bytes (constrained profile).
WTLS_MAC_BYTES = 10

_TLS_HEADER = 3   # type(1) | length(2)
_WTLS_HEADER = 6  # seq(4) | length(2)


class BatchRecordError(ProtocolAlert):
    """One record inside a batch failed; its neighbours are intact.

    Carries the zero-based ``index`` of the failing record, the list of
    records already ``decoded`` (the transactional contract guarantees
    they are committed and the decoder state is positioned exactly
    after them), and the underlying ``cause`` alert.
    """

    def __init__(self, index: int, decoded: list, cause: Exception) -> None:
        super().__init__(f"record {index} of batch failed: {cause}")
        self.index = index
        self.decoded = decoded
        self.cause = cause


def _mac_fn(mac_base: HMAC) -> Callable[[bytes, bytes], bytes]:
    """Per-message MAC closure over a keyed HMAC's cached pad states.

    When both pad states are backed by the hashlib fast path, the
    closure clones those handles directly — the same two-clone chain as
    :meth:`HMAC.mac` minus the wrapper attribute traffic.  Otherwise it
    falls back to :meth:`HMAC.mac` (reference hash loops).  Both paths
    are bit-identical; the differential tests pin them.

    The closure takes the MAC input as ``(prefix, payload)`` — two
    hash updates instead of one concatenation, so a 1 KiB payload is
    never copied just to prepend its 11-byte pseudo-header.
    """
    inner = getattr(mac_base._inner, "_impl", None)
    outer = getattr(mac_base._outer, "_impl", None)
    if inner is None or outer is None:
        reference = mac_base.mac

        def mac(prefix: bytes, payload) -> bytes:
            if type(payload) is not bytes:
                payload = bytes(payload)
            return reference(prefix + payload)

        return mac
    inner_copy = inner.copy
    outer_copy = outer.copy

    def mac(prefix: bytes, payload) -> bytes:
        h = inner_copy()
        h.update(prefix)
        h.update(payload)
        o = outer_copy()
        o.update(h.digest())
        return o.digest()

    return mac


# ---------------------------------------------------------------------------
# Shared by both framings: the fragment loop and the traced calls
# ---------------------------------------------------------------------------


def fragment_walk(encode_parts):
    """Build an encoder's span walk over its per-record ``encode_parts``.

    ``encode_span(items, max_fragment, append)`` seals every
    ``(content_type, payload)`` item, splitting payloads larger than
    ``max_fragment`` across consecutive records, and returns
    ``(records, payload_bytes)``.  The one fragment loop of both
    framings."""
    def encode_span(items, max_fragment: int, append) -> Tuple[int, int]:
        emitted = payload_bytes = 0
        for content_type, payload in items:
            length = len(payload)
            payload_bytes += length
            if length > max_fragment:
                view = memoryview(payload)
                for offset in range(0, length, max_fragment):
                    encode_parts(content_type,
                                 view[offset:offset + max_fragment], append)
                    emitted += 1
            else:
                encode_parts(content_type, payload, append)
                emitted += 1
        return emitted, payload_bytes

    return encode_span


def encode_batch(encoder, items, max_fragment: int = MAX_FRAGMENT):
    """Protect ``(content_type, payload)`` items into one wire buffer.

    Returns ``(wire, payload_bytes, summary)`` (see :func:`trace_batch`).
    Concatenated records — a batch of one is byte-identical to the
    encoder's single-record ``encode``.  Payloads larger than
    ``max_fragment`` are fragmented across consecutive records (TLS's
    answer to the 2^14 ceiling) instead of erroring.
    """
    if not 0 < max_fragment <= MAX_FRAGMENT:
        raise ValueError(
            f"max_fragment must be in 1..{MAX_FRAGMENT}, got {max_fragment}"
        )
    parts: List[bytes] = []
    emitted, payload_bytes = encoder._encode_span(
        items, max_fragment, parts.append)
    return b"".join(parts), payload_bytes, {
        "records": emitted, "n": payload_bytes}


def _charge(telemetry, suite, n_bytes: int) -> None:
    telemetry.add_cycles(record_cycles(suite.cipher, suite.mac, n_bytes),
                         kind="record")


def trace_record(telemetry, codec, name: str, n: int, recorder, call, *args):
    """Run one single-record ``call(*args)`` inside its record span.

    The traced branch of ``encode``/``decode`` on both framings (the
    dark branch calls the compiled closure directly).  ``recorder`` is
    the side-channel recorder that decides the span's dispatch path.
    ``record.encode`` charges the payload's modelled cycles before the
    call, so a refused record still costs its attempt;
    ``record.decode`` charges the opened payload after the call and
    tags a failure with its ``error``."""
    suite = codec.suite
    with telemetry.span(name, layer=codec.layer, suite=suite.name, n=n,
                        path=fastpath.dispatch_path(recorder)) as span:
        if name == "record.encode":
            _charge(telemetry, suite, n)
            return call(*args)
        try:
            result = call(*args)
        except Exception as exc:
            span.set(error=type(exc).__name__)
            raise
        _charge(telemetry, suite, len(result[1]))
        return result


def trace_batch(telemetry, codec, name: str, walk, *args, **opening):
    """Run one batch ``walk(*args)`` inside its ``record.*_batch`` span.

    Every batch walk returns ``(result, payload_bytes, summary)``; the
    dark branch keeps ``result`` only, this traced branch charges the
    payload bytes' modelled cycles and sets ``summary`` (``records``
    plus ``n`` or ``damaged``) on the span.  ``opening`` holds the
    attributes known before the walk (``n`` of a buffer to decode).  A
    :class:`BatchRecordError` tags the span with the failing record's
    ``error`` and ``index``."""
    suite = codec.suite
    with telemetry.span(name, layer=codec.layer, suite=suite.name,
                        **opening, path=fastpath.dispatch_path()) as span:
        try:
            result, payload_bytes, summary = walk(*args)
        except BatchRecordError as exc:
            span.set(error=type(exc.cause).__name__, index=exc.index)
            raise
        _charge(telemetry, suite, payload_bytes)
        span.set(**summary)
        return result


# ---------------------------------------------------------------------------
# mini-TLS: implicit 64-bit sequence, MAC-then-encrypt, residue-chained CBC
# ---------------------------------------------------------------------------


def compile_tls_encoder(encoder):
    """Compile a :class:`~repro.protocols.records.RecordEncoder`'s suite
    into ``(encode_one, encode_span)`` closures.

    ``encode_parts(content_type, payload, append)`` emits one record as
    wire fragments via ``append``; ``encode_span`` is
    :func:`fragment_walk` over it, so the batched path joins all
    records' fragments once and a NULL-cipher record never copies its
    payload at all (``b"".join`` consumes the caller's ``memoryview``
    directly).  ``encode_one`` is the single-record wrapper over the
    same closure, which is what keeps the two paths byte-identical by
    construction.
    """
    mac = _mac_fn(encoder._mac_base)
    mac_len = encoder._mac_base.digest_size
    stream = encoder._stream
    cbc = encoder._cbc
    if stream is not None:
        seal = stream.process
    elif cbc is not None:
        seal = cbc.encrypt_next
    else:
        seal = None

    def encode_parts(content_type: int, payload, append) -> None:
        sequence = encoder._sequence
        if sequence > TLS_MAX_SEQUENCE:
            raise RenegotiationRequired(
                "TLS record sequence space exhausted (2^64 records sent): "
                "re-handshake to refresh keys before sending more data"
            )
        length = len(payload)
        if length > MAX_FRAGMENT:
            raise RecordOverflow(
                f"record payload of {length} bytes exceeds the 2^14-byte "
                f"TLS fragment ceiling; encode_batch fragments automatically"
            )
        # seq(8) | type(1) | length(2), packed as one 11-byte big-endian
        # integer write instead of three allocations and a concat.
        tag = mac(
            ((sequence << 24) | (content_type << 16) | length)
            .to_bytes(11, "big"),
            payload,
        )
        if seal is None:
            body_len = length + mac_len
            append(bytes((content_type, body_len >> 8, body_len & 0xFF)))
            append(payload)
            append(tag)
        else:
            if type(payload) is not bytes:
                payload = bytes(payload)
            body = seal(payload + tag)
            body_len = len(body)
            append(bytes((content_type, body_len >> 8, body_len & 0xFF)))
            append(body)
        encoder._sequence = sequence + 1

    def encode_one(content_type: int, payload: bytes) -> bytes:
        parts: List[bytes] = []
        encode_parts(content_type, payload, parts.append)
        return b"".join(parts)

    return encode_one, fragment_walk(encode_parts)


def compile_tls_decoder(decoder):
    """Compile a :class:`~repro.protocols.records.RecordDecoder`'s suite
    into ``(open_one, open_span)`` closures.

    ``open_one(content_type, body)`` opens a single record; ``body`` is
    the record body *without* the 3-byte header — a ``memoryview``
    slice on the batched path.  State (sequence, CBC residue, stream
    keystream position) commits only after the MAC verifies: the
    transactional contract.

    ``open_span(view)`` walks a buffer of concatenated records over
    ``open_one`` and returns ``([(type, payload)], payload_bytes,
    summary)`` (see :func:`trace_batch`), raising
    :class:`BatchRecordError` on the first failing record.
    """
    mac = _mac_fn(decoder._mac_base)
    mac_len = decoder._mac_base.digest_size
    stream = decoder._stream
    cbc = decoder._cbc

    def _verify(sequence: int, content_type: int, protected: bytes):
        if len(protected) < mac_len:
            raise BadRecordMAC("record too short to hold MAC")
        length = len(protected) - mac_len
        payload = bytes(protected[:length])
        expected = mac(
            ((sequence << 24) | (content_type << 16) | length)
            .to_bytes(11, "big"),
            payload,
        )
        if not constant_time_compare(expected, protected[length:]):
            raise BadRecordMAC("record MAC verification failed")
        return payload

    if stream is not None:
        def open_one(content_type: int, body) -> Tuple[int, bytes]:
            sequence = decoder._sequence
            if sequence > TLS_MAX_SEQUENCE:
                raise RenegotiationRequired(
                    "TLS record sequence space exhausted (2^64 records "
                    "received): re-handshake to refresh keys"
                )
            snapshot = stream.save_state()
            try:
                payload = _verify(sequence, content_type, stream.process(body))
            except ProtocolAlert:
                stream.restore_state(snapshot)  # tampering must not eat keystream
                raise
            decoder._sequence = sequence + 1
            return content_type, payload
    elif cbc is not None:
        def open_one(content_type: int, body) -> Tuple[int, bytes]:
            sequence = decoder._sequence
            if sequence > TLS_MAX_SEQUENCE:
                raise RenegotiationRequired(
                    "TLS record sequence space exhausted (2^64 records "
                    "received): re-handshake to refresh keys"
                )
            try:
                protected = cbc.decrypt_next(body, commit=False)
            except (PaddingError, InvalidBlockSize) as exc:
                raise BadRecordMAC(f"padding invalid: {exc}") from exc
            payload = _verify(sequence, content_type, protected)
            cbc.commit_residue(body)  # only a verified record advances the chain
            decoder._sequence = sequence + 1
            return content_type, payload
    else:
        def open_one(content_type: int, body) -> Tuple[int, bytes]:
            sequence = decoder._sequence
            if sequence > TLS_MAX_SEQUENCE:
                raise RenegotiationRequired(
                    "TLS record sequence space exhausted (2^64 records "
                    "received): re-handshake to refresh keys"
                )
            payload = _verify(sequence, content_type, body)
            decoder._sequence = sequence + 1
            return content_type, payload

    def open_span(view):
        out: List[Tuple[int, bytes]] = []
        append = out.append
        offset = 0
        total = len(view)
        payload_bytes = 0
        while offset < total:
            if total - offset < _TLS_HEADER:
                raise BatchRecordError(
                    len(out), out,
                    DecodeError("batch truncated inside a record header"))
            length = (view[offset + 1] << 8) | view[offset + 2]
            end = offset + _TLS_HEADER + length
            if end > total:
                raise BatchRecordError(
                    len(out), out,
                    DecodeError(
                        f"record length field {length} overruns batch "
                        f"({total - offset - _TLS_HEADER} bytes left)"))
            try:
                record = open_one(view[offset],
                                  view[offset + _TLS_HEADER:end])
            except ProtocolAlert as exc:
                raise BatchRecordError(len(out), out, exc) from exc
            append(record)
            payload_bytes += len(record[1])
            offset = end
        return out, payload_bytes, {"records": len(out)}

    return open_one, open_span


# ---------------------------------------------------------------------------
# WTLS: explicit 32-bit sequence, truncated MAC, loss-tolerant records
# ---------------------------------------------------------------------------


def _wtls_crypt(codec, decrypt: bool):
    """The per-record cipher of a WTLS codec's suite, or ``None``.

    Returns ``crypt(sequence, data)``.  Records stay independently
    decryptable after loss: stream suites re-key every record from
    ``key xor seq``, block suites run CBC from ``iv xor seq`` over one
    cached key schedule (the key is per-connection, only the IV is per
    record).  Each derivation is one big-int XOR."""
    suite = codec.suite
    if suite.cipher == "NULL":
        return None
    if suite.cipher_kind == "stream":
        make_cipher = suite.make_cipher
        key_int = int.from_bytes(codec._key, "big")
        key_len = len(codec._key)

        def crypt(sequence: int, data) -> bytes:
            return make_cipher(
                (key_int ^ sequence).to_bytes(key_len, "big")
            ).process(data)

        return crypt
    cipher = suite.make_cipher(codec._key)
    iv_int = int.from_bytes(codec._iv, "big")
    iv_len = len(codec._iv)

    def crypt(sequence: int, data) -> bytes:
        record_iv = ((iv_int ^ sequence).to_bytes(iv_len, "big")
                     if iv_len else b"")
        if decrypt:
            return CBC(cipher, record_iv).decrypt(data)
        return CBC(cipher, record_iv).encrypt(data)

    return crypt


def compile_wtls_encoder(encoder):
    """Compile a WTLS encoder's suite into ``(encode_one, encode_span)``.

    ``encode_one(payload)`` seals one datagram; ``encode_span`` is
    :func:`fragment_walk` over it (WTLS items carry no content type)."""
    mac = _mac_fn(encoder._mac_base)
    seal = _wtls_crypt(encoder, decrypt=False)

    def encode_one(payload: bytes) -> bytes:
        sequence = encoder._sequence
        if sequence > WTLS_MAX_SEQUENCE:
            raise RenegotiationRequired(
                "WTLS record sequence space exhausted (2^32 records sent): "
                "re-handshake to refresh keys before sending more data"
            )
        if len(payload) > MAX_FRAGMENT:
            raise RecordOverflow(
                f"record payload of {len(payload)} bytes exceeds the "
                f"2^14-byte fragment ceiling; send_batch fragments "
                f"automatically"
            )
        if type(payload) is not bytes:
            payload = bytes(payload)
        header = sequence.to_bytes(4, "big")
        protected = payload + mac(header, payload)[:WTLS_MAC_BYTES]
        body = seal(sequence, protected) if seal is not None else protected
        encoder._sequence = sequence + 1
        body_len = len(body)
        return header + bytes((body_len >> 8, body_len & 0xFF)) + body

    def encode_parts(_content_type, payload, append) -> None:
        append(encode_one(payload))

    return encode_one, fragment_walk(encode_parts)


def compile_wtls_decoder(decoder):
    """Compile a WTLS decoder's suite into ``(open_one, open_span)``.

    ``open_one(sequence, body)`` opens one datagram.  The WTLS decoder
    is transactional by construction — replay set and counters commit
    only after the MAC verifies; per-record keys/IVs mean there is no
    chained state to poison.

    ``open_span(view, skip_damaged)`` walks a buffer of records over
    ``open_one`` and returns ``(([(sequence, payload)], damaged),
    payload_bytes, summary)`` (see :func:`trace_batch` and
    :meth:`~repro.protocols.wtls.WTLSRecordDecoder.decode_batch`).
    """
    mac = _mac_fn(decoder._mac_base)
    unseal = _wtls_crypt(decoder, decrypt=True)

    def open_one(sequence: int, body) -> Tuple[int, bytes]:
        if sequence in decoder._seen:
            raise ReplayError(f"WTLS record {sequence} replayed")
        if unseal is None:
            protected = body
        else:
            try:
                protected = unseal(sequence, body)
            except PaddingError as exc:
                if decoder.distinguishable_errors:
                    raise  # the Vaudenay-era flaw: padding error visible
                raise BadRecordMAC(f"WTLS padding invalid: {exc}") from exc
            except InvalidBlockSize as exc:
                raise BadRecordMAC(f"WTLS body misaligned: {exc}") from exc
        if len(protected) < WTLS_MAC_BYTES:
            raise BadRecordMAC("WTLS record too short for MAC")
        length = len(protected) - WTLS_MAC_BYTES
        payload = bytes(protected[:length])
        expected = mac(sequence.to_bytes(4, "big"), payload)[:WTLS_MAC_BYTES]
        if not constant_time_compare(expected, protected[length:]):
            raise BadRecordMAC("WTLS MAC verification failed")
        decoder._seen.add(sequence)
        if sequence > decoder.highest_sequence:
            decoder.highest_sequence = sequence
        decoder.received += 1
        return sequence, payload

    def open_span(view, skip_damaged: bool):
        out: List[Tuple[int, bytes]] = []
        damaged: List[ProtocolAlert] = []
        offset = 0
        total = len(view)
        payload_bytes = 0
        while offset < total:
            if total - offset < _WTLS_HEADER:
                exc: ProtocolAlert = DecodeError(
                    "batch truncated inside a WTLS record header")
                if skip_damaged:
                    damaged.append(exc)
                    break  # no length field to resynchronise on
                raise BatchRecordError(len(out), out, exc)
            sequence = (
                (view[offset] << 24) | (view[offset + 1] << 16)
                | (view[offset + 2] << 8) | view[offset + 3]
            )
            length = (view[offset + 4] << 8) | view[offset + 5]
            end = offset + _WTLS_HEADER + length
            if end > total:
                exc = DecodeError(
                    f"WTLS record length field {length} overruns batch "
                    f"({total - offset - _WTLS_HEADER} bytes left)")
                if skip_damaged:
                    damaged.append(exc)
                    break
                raise BatchRecordError(len(out), out, exc)
            try:
                record = open_one(sequence, view[offset + _WTLS_HEADER:end])
            except (BadRecordMAC, DecodeError, ReplayError) as exc2:
                if not skip_damaged:
                    raise BatchRecordError(len(out), out, exc2) from exc2
                damaged.append(exc2)
            else:
                out.append(record)
                payload_bytes += len(record[1])
            offset = end
        return ((out, damaged), payload_bytes,
                {"records": len(out), "damaged": len(damaged)})

    return open_one, open_span
