"""MD5 (RFC 1321) implemented from scratch.

MD5 is the second MAC hash named by Section 3.1's SSL flexibility
example ("SHA-1 or MD5") and appears throughout the WTLS/SSL suite
matrix.  Kept for interoperability with the paper's 2003-era protocol
landscape — the registry marks it legacy.
"""

from __future__ import annotations

import math
import struct

from . import fastpath

DIGEST_SIZE = 16
BLOCK_SIZE = 64

_WORDS = struct.Struct("<16I")

_S = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

# Constants derived per RFC 1321: K[i] = floor(2^32 * |sin(i + 1)|).
_K = tuple(int(abs(math.sin(i + 1)) * 2 ** 32) & 0xFFFFFFFF for i in range(64))

_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)


def _compress(state: tuple, block: bytes) -> tuple:
    # Hot loop: the four RFC 1321 stages are unrolled, the rotate is
    # inlined against a local mask, and K/S are bound to locals.
    mask = 0xFFFFFFFF
    m = _WORDS.unpack(block)
    k = _K
    s = _S
    a, b, c, d = state
    for i in range(0, 16):
        f = (((b & c) | (~b & d)) + a + k[i] + m[i]) & mask
        r = s[i]
        a, d, c = d, c, b
        b = (b + (((f << r) | (f >> (32 - r))) & mask)) & mask
    for i in range(16, 32):
        f = (((d & b) | (~d & c)) + a + k[i] + m[(5 * i + 1) % 16]) & mask
        r = s[i]
        a, d, c = d, c, b
        b = (b + (((f << r) | (f >> (32 - r))) & mask)) & mask
    for i in range(32, 48):
        f = ((b ^ c ^ d) + a + k[i] + m[(3 * i + 5) % 16]) & mask
        r = s[i]
        a, d, c = d, c, b
        b = (b + (((f << r) | (f >> (32 - r))) & mask)) & mask
    for i in range(48, 64):
        f = ((c ^ (b | (~d & mask))) + a + k[i] + m[(7 * i) % 16]) & mask
        r = s[i]
        a, d, c = d, c, b
        b = (b + (((f << r) | (f >> (32 - r))) & mask)) & mask
    return (
        (state[0] + a) & mask,
        (state[1] + b) & mask,
        (state[2] + c) & mask,
        (state[3] + d) & mask,
    )


class MD5:
    """Incremental MD5 with the hashlib-style update/digest interface.

    Like :class:`~repro.crypto.sha1.SHA1`, instances are backed by the
    platform's optimised MD5 when the fast path is enabled (and the
    build permits MD5 at all); the reference compression function
    above remains the ground truth.
    """

    name = "MD5"
    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    # Reference-loop state; the fast path never touches it, so a fresh
    # object reads these class-level starting values.
    _state = _H0
    _buffer = b""
    _length = 0

    def __init__(self, data: bytes = b"") -> None:
        new = fastpath.hashlib_md5
        if new is not None and fastpath.enabled():
            self._impl = new(data)
            return
        self._impl = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> "MD5":
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
        """Return the 16-byte digest without disturbing internal state."""
        if self._impl is not None:
            return self._impl.digest()
        state, buffer = self._state, self._buffer
        bit_length = (self._length * 8) & 0xFFFFFFFFFFFFFFFF
        padding = b"\x80" + b"\x00" * ((55 - self._length) % 64)
        tail = buffer + padding + bit_length.to_bytes(8, "little")
        for offset in range(0, len(tail), BLOCK_SIZE):
            state = _compress(state, tail[offset : offset + BLOCK_SIZE])
        return b"".join(word.to_bytes(4, "little") for word in state)

    def hexdigest(self) -> str:
        """Digest as lowercase hex."""
        return self.digest().hex()

    def copy(self) -> "MD5":
        """Independent copy of the running hash state."""
        clone = object.__new__(MD5)
        clone._impl = self._impl.copy() if self._impl is not None else None
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest."""
    return MD5(data).digest()
