"""SHA-1 (FIPS 180-1) implemented from scratch.

SHA-1 is the message-authentication hash in the paper's 651.3-MIPS
workload (Section 3.2: "3DES for encryption/decryption and SHA for
message authentication at 10 Mbps") and one of the two MAC hashes an
SSL cipher suite must offer (Section 3.1).  The implementation follows
the FIPS 180-1 80-round compression function and supports incremental
hashing so the record layers can MAC streaming data.
"""

from __future__ import annotations

import struct

from . import fastpath

DIGEST_SIZE = 20
BLOCK_SIZE = 64

_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

_WORDS = struct.Struct(">16I")


def _compress(state: tuple, block: bytes) -> tuple:
    # Hot loop: rotates are inlined against a local mask and the four
    # FIPS 180-1 stages are unrolled so the per-round stage test goes away.
    mask = 0xFFFFFFFF
    w = list(_WORDS.unpack(block))
    append = w.append
    for i in range(16, 80):
        x = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
        append(((x << 1) | (x >> 31)) & mask)
    a, b, c, d, e = state
    for i in range(0, 20):
        t = ((((a << 5) | (a >> 27)) & mask)
             + ((b & c) | (~b & d)) + e + 0x5A827999 + w[i]) & mask
        a, b, c, d, e = t, a, ((b << 30) | (b >> 2)) & mask, c, d
    for i in range(20, 40):
        t = ((((a << 5) | (a >> 27)) & mask)
             + (b ^ c ^ d) + e + 0x6ED9EBA1 + w[i]) & mask
        a, b, c, d, e = t, a, ((b << 30) | (b >> 2)) & mask, c, d
    for i in range(40, 60):
        t = ((((a << 5) | (a >> 27)) & mask)
             + ((b & c) | (b & d) | (c & d)) + e + 0x8F1BBCDC + w[i]) & mask
        a, b, c, d, e = t, a, ((b << 30) | (b >> 2)) & mask, c, d
    for i in range(60, 80):
        t = ((((a << 5) | (a >> 27)) & mask)
             + (b ^ c ^ d) + e + 0xCA62C1D6 + w[i]) & mask
        a, b, c, d, e = t, a, ((b << 30) | (b >> 2)) & mask, c, d
    return (
        (state[0] + a) & mask,
        (state[1] + b) & mask,
        (state[2] + c) & mask,
        (state[3] + d) & mask,
        (state[4] + e) & mask,
    )


class SHA1:
    """Incremental SHA-1 with the hashlib-style update/digest interface.

    When the fast path is enabled (see :mod:`repro.crypto.fastpath`)
    the instance is backed by the platform's optimised SHA-1; the
    from-scratch compression function above stays the reference, and
    the differential tests pin the two bit-for-bit.  The backend is
    chosen at construction time, so objects remain consistent across
    switch toggles.
    """

    name = "SHA1"
    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    # Reference-loop state; the fast path never touches it, so a fresh
    # object reads these class-level starting values.
    _state = _H0
    _buffer = b""
    _length = 0

    def __init__(self, data: bytes = b"") -> None:
        new = fastpath.hashlib_sha1
        if new is not None and fastpath.enabled():
            self._impl = new(data)
            return
        self._impl = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA1":
        """Absorb more message bytes; returns self for chaining."""
        if self._impl is not None:
            self._impl.update(data)
            return self
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= BLOCK_SIZE:
            self._state = _compress(self._state, self._buffer[:BLOCK_SIZE])
            self._buffer = self._buffer[BLOCK_SIZE:]
        return self

    def digest(self) -> bytes:
        """Return the 20-byte digest without disturbing internal state."""
        if self._impl is not None:
            return self._impl.digest()
        state, buffer = self._state, self._buffer
        bit_length = self._length * 8
        padding = b"\x80" + b"\x00" * ((55 - self._length) % 64)
        tail = buffer + padding + bit_length.to_bytes(8, "big")
        for offset in range(0, len(tail), BLOCK_SIZE):
            state = _compress(state, tail[offset : offset + BLOCK_SIZE])
        return b"".join(word.to_bytes(4, "big") for word in state)

    def hexdigest(self) -> str:
        """Digest as lowercase hex."""
        return self.digest().hex()

    def copy(self) -> "SHA1":
        """Independent copy of the running hash state."""
        clone = object.__new__(SHA1)
        clone._impl = self._impl.copy() if self._impl is not None else None
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest."""
    return SHA1(data).digest()
