"""Grain v1 — the eSTREAM low-footprint NFSR/LFSR stream cipher.

The third lightweight design from Pourghasem et al.'s m-commerce
motivation (PAPERS.md): Hell, Johansson and Meier's Grain v1, an
80-bit-key cipher built from one linear and one nonlinear 80-bit
feedback shift register joined by a boolean filter — the smallest
hardware footprint in the eSTREAM portfolio and therefore the extreme
low-energy point of our suite family.

Implementation shape
--------------------

Both registers live in Python ints with spec bit ``b_i``/``s_i`` at
int bit ``i`` (LSB-first), so loading is just
``int.from_bytes(..., "little")`` and a spec step is ``>> 1`` with the
feedback bit inserted at bit 79.  The fast path batches 16 spec steps:
every tap index is at most 64, so all sixteen steps read windows of
pre-batch state bits (the 16-step validity bound ``64 + 15 <= 79``) —
Grain's own designers describe exactly this x16 speedup as the
hardware trade-off.  The initialisation, which feeds the filter output
back into both registers, runs its ten batches in :func:`_run_chunks`.

Keystream mode feeds nothing back, so the LFSR runs on its own and the
NFSR only reads it.  :func:`_keystream` therefore works in bulk:

1. :func:`_lfsr_stream` builds ``s_0 .. s_{16n+79}`` as one int,
   stepping by the recurrences of ``f(x)^(2^k) = f(x^(2^k))``: 16, 32
   and 64 bits at a time while the stream is shorter than 160, 320
   and 640 bits, then 144 bits at a time with
   ``s_{i+640} = s_{i+496}+s_{i+408}+s_{i+304}+s_{i+184}+s_{i+104}+s_i``;
2. one loop frame runs the NFSR alone, 16 feedback bits
   ``s_i + g(b)`` per batch, with each window shifted once and masked
   to 16 bits before the nonlinear terms;
3. one ``struct.pack`` assembles the NFSR stream ``b_0 .. b_{16n+79}``;
4. the filter computes all ``16n`` keystream bits in one pass of
   big-int shifts, ANDs and XORs over both streams, and both registers
   are read back at bit ``16n``.

Both dispatch paths advance in whole 16-bit (2-byte) chunks and buffer
the leftover byte, so :meth:`save_state` snapshots are byte-identical
whichever path produced them.

Conventions (frozen by the KAT corpus): key/IV bits load LSB-first
within each byte (``b_0`` is bit 0 of ``key[0]``), keystream bits pack
LSB-first within each output byte.  The suite key blob is
``key[10] || iv[8]``; the LFSR's top 16 bits are filled with ones per
the spec.
"""

from __future__ import annotations

import struct
from typing import Tuple

from . import fastpath
from .errors import InvalidKeyLength

_M16 = 0xFFFF
_INIT_STEPS = 160


def _run_chunks(b: int, s: int, chunks: int) -> Tuple[int, int]:
    """``chunks`` batches of 16 initialisation steps on (NFSR ``b``,
    LFSR ``s``), the filter output folded back into both feedbacks.
    Returns the new registers."""
    for _ in range(chunks):
        # Filter h(x0..x4) on (s3, s25, s46, s64, b63), its ten
        # monomials grouped by x3, x0·x2 and x2·x4.
        x0 = s >> 3 & _M16
        x1 = s >> 25 & _M16
        x2 = s >> 46 & _M16
        x3 = s >> 64
        b63 = b >> 63 & _M16
        z = (((b >> 1 ^ b >> 2 ^ b >> 4 ^ b >> 10 ^ b >> 31 ^ b >> 43
               ^ b >> 56) & _M16)
             ^ x1 ^ b63 ^ (x3 & (x0 ^ x2 ^ b63))
             ^ (x0 & x2 & (x1 ^ x3 ^ b63)) ^ (x2 & b63 & (x1 ^ x3)))
        # LFSR feedback f: s_{i+80} = s62+s51+s38+s23+s13+s0.
        ns = (s >> 62 ^ s >> 51 ^ s >> 38 ^ s >> 23 ^ s >> 13 ^ s ^ z) & _M16
        # NFSR feedback g (masked input s0 added per the spec), its
        # monomials in spec order over the shared windows.
        b60 = b >> 60 & _M16
        b52 = b >> 52 & _M16
        b45 = b >> 45 & _M16
        b37 = b >> 37 & _M16
        b33 = b >> 33 & _M16
        b28 = b >> 28 & _M16
        b21 = b >> 21 & _M16
        b15 = b >> 15 & _M16
        b9 = b >> 9 & _M16
        b63_60 = b63 & b60
        b52_45 = b52 & b45
        b37_33 = b37 & b33
        b33_28_21 = b33 & b28 & b21
        b15_9 = b15 & b9
        nb = (((s ^ b >> 62 ^ b >> 14 ^ b) & _M16) ^ z
              ^ b60 ^ b52 ^ b45 ^ b37 ^ b33 ^ b28 ^ b21 ^ b9
              ^ b63_60 ^ b37_33 ^ b15_9 ^ (b60 & b52_45) ^ b33_28_21
              ^ (b63 & b45 & b28 & b9) ^ (b60 & b52 & b37_33)
              ^ (b63_60 & b21 & b15) ^ (b63_60 & b52_45 & b37)
              ^ (b33_28_21 & b15_9) ^ (b52_45 & b37 & b33_28_21))
        s = s >> 16 | ns << 64
        b = b >> 16 | nb << 64
    return b, s


# The LFSR stream's recurrences f(x)^(2^k) = f(x^(2^k)) over GF(2):
# (stream length up to which a row runs, step width, degree, taps).
# Each width is at most degree minus top tap, so a step reads only
# bits already in the stream; each row runs until the stream holds the
# next row's degree in bits of history.
_LFSR_STEPS = (
    (160, 16, 80, 62, 51, 38, 23, 13),
    (320, 32, 160, 124, 102, 76, 46, 26),
    (640, 64, 320, 248, 204, 152, 92, 52),
    (None, 144, 640, 496, 408, 304, 184, 104),
)


def _lfsr_stream(s: int, bits: int) -> int:
    """LFSR bits ``s_0 .. s_{bits-1}`` at int bits 0.., from the
    80-bit register ``s``.  Keystream mode never feeds the filter
    back, so the LFSR runs on its own."""
    stream, top = s, 80
    for limit, width, degree, t1, t2, t3, t4, t5 in _LFSR_STEPS:
        end = bits if limit is None else min(bits, limit)
        mask = (1 << width) - 1
        while top < end:
            i = top - degree
            stream |= ((stream >> i + t1 ^ stream >> i + t2
                        ^ stream >> i + t3 ^ stream >> i + t4
                        ^ stream >> i + t5 ^ stream >> i) & mask) << top
            top += width
    return stream & ((1 << bits) - 1)


def _keystream(b: int, s: int, chunks: int) -> Tuple[bytes, int, int]:
    """``2·chunks`` keystream bytes from (NFSR ``b``, LFSR ``s``) and
    the registers after them.

    The LFSR stream comes first, whole; the loop then runs the NFSR
    alone, its feedback ``s_i + g(b)`` over 16-bit windows; the filter
    ``z`` runs last, once over both streams as big ints."""
    bits = 16 * chunks + 80
    lfsr = _lfsr_stream(s, bits)
    nfsr = []
    append = nfsr.append
    nfsr_head = b
    for s_i in struct.unpack_from(f"<{chunks}H",
                                  lfsr.to_bytes(bits >> 3, "little")):
        # NFSR feedback g plus the LFSR bits s_i, as in _run_chunks:
        # written out, not shared, because a call per batch costs
        # about 3% of this loop.
        b63 = b >> 63 & _M16
        b60 = b >> 60 & _M16
        b52 = b >> 52 & _M16
        b45 = b >> 45 & _M16
        b37 = b >> 37 & _M16
        b33 = b >> 33 & _M16
        b28 = b >> 28 & _M16
        b21 = b >> 21 & _M16
        b15 = b >> 15 & _M16
        b9 = b >> 9 & _M16
        b63_60 = b63 & b60
        b52_45 = b52 & b45
        b37_33 = b37 & b33
        b33_28_21 = b33 & b28 & b21
        b15_9 = b15 & b9
        nb = (((s_i ^ b >> 62 ^ b >> 14 ^ b) & _M16)
              ^ b60 ^ b52 ^ b45 ^ b37 ^ b33 ^ b28 ^ b21 ^ b9
              ^ b63_60 ^ b37_33 ^ b15_9 ^ (b60 & b52_45) ^ b33_28_21
              ^ (b63 & b45 & b28 & b9) ^ (b60 & b52 & b37_33)
              ^ (b63_60 & b21 & b15) ^ (b63_60 & b52_45 & b37)
              ^ (b33_28_21 & b15_9) ^ (b52_45 & b37 & b33_28_21))
        append(nb)
        b = b >> 16 | nb << 64
    nfsr_stream = nfsr_head | int.from_bytes(
        struct.pack(f"<{chunks}H", *nfsr), "little") << 80
    # Filter h(x0..x4) on (s3, s25, s46, s64, b63) for every output
    # bit at once, grouped as in the initialisation loop.
    x0 = lfsr >> 3
    x1 = lfsr >> 25
    x2 = lfsr >> 46
    x3 = lfsr >> 64
    b63 = nfsr_stream >> 63
    z = (nfsr_stream >> 1 ^ nfsr_stream >> 2 ^ nfsr_stream >> 4
         ^ nfsr_stream >> 10 ^ nfsr_stream >> 31 ^ nfsr_stream >> 43
         ^ nfsr_stream >> 56
         ^ x1 ^ b63 ^ (x3 & (x0 ^ x2 ^ b63))
         ^ (x0 & x2 & (x1 ^ x3 ^ b63)) ^ (x2 & b63 & (x1 ^ x3)))
    out_bits = 16 * chunks
    return ((z & ((1 << out_bits) - 1)).to_bytes(2 * chunks, "little"),
            b, lfsr >> out_bits)


class Grain:
    """Grain v1 keystream generator with the RC4-compatible interface.

    The key blob is either 10 bytes (key alone, zero IV) or the
    suite's 18 bytes (``key || iv``).
    """

    name = "GRAIN"
    block_size = 1
    key_size = 18

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) == 10:
            iv = b"\x00" * 8
        elif len(key) == 18:
            key, iv = key[:10], key[10:]
        else:
            raise InvalidKeyLength("GRAIN", len(key), "10 or 18")
        self.recorder = None
        self._b = int.from_bytes(key, "little")            # NFSR b0..b79
        self._s = int.from_bytes(iv, "little") | (_M16 << 64)  # LFSR s0..s79
        self._buffer = b""
        self._warm_up()

    # -- the two registers and the filter ------------------------------------

    def _step(self, feed_z: bool) -> int:
        """One spec step; returns its keystream bit.  With ``feed_z``
        the output is folded back into both feedbacks (initialisation
        mode)."""
        b, s = self._b, self._s
        # Filter h(x0..x4) on (s3, s25, s46, s64, b63).
        x0, x1, x2 = s >> 3, s >> 25, s >> 46
        x3, x4 = s >> 64, b >> 63
        h = (x1 ^ x4 ^ (x0 & x3) ^ (x2 & x3) ^ (x3 & x4)
             ^ (x0 & x1 & x2) ^ (x0 & x2 & x3) ^ (x0 & x2 & x4)
             ^ (x1 & x2 & x4) ^ (x2 & x3 & x4))
        z = ((b >> 1) ^ (b >> 2) ^ (b >> 4) ^ (b >> 10) ^ (b >> 31)
             ^ (b >> 43) ^ (b >> 56) ^ h) & 1
        # LFSR feedback f: s_{i+80} = s62+s51+s38+s23+s13+s0.
        ns = ((s >> 62) ^ (s >> 51) ^ (s >> 38) ^ (s >> 23) ^ (s >> 13) ^ s) & 1
        # NFSR feedback g (masked input s0 added per the spec).
        nb = (s ^ (b >> 62) ^ (b >> 60) ^ (b >> 52) ^ (b >> 45) ^ (b >> 37)
              ^ (b >> 33) ^ (b >> 28) ^ (b >> 21) ^ (b >> 14) ^ (b >> 9) ^ b
              ^ ((b >> 63) & (b >> 60))
              ^ ((b >> 37) & (b >> 33))
              ^ ((b >> 15) & (b >> 9))
              ^ ((b >> 60) & (b >> 52) & (b >> 45))
              ^ ((b >> 33) & (b >> 28) & (b >> 21))
              ^ ((b >> 63) & (b >> 45) & (b >> 28) & (b >> 9))
              ^ ((b >> 60) & (b >> 52) & (b >> 37) & (b >> 33))
              ^ ((b >> 63) & (b >> 60) & (b >> 21) & (b >> 15))
              ^ ((b >> 63) & (b >> 60) & (b >> 52) & (b >> 45) & (b >> 37))
              ^ ((b >> 33) & (b >> 28) & (b >> 21) & (b >> 15) & (b >> 9))
              ^ ((b >> 52) & (b >> 45) & (b >> 37) & (b >> 33) & (b >> 28)
                 & (b >> 21))) & 1
        if feed_z:
            ns ^= z
            nb ^= z
        self._s = s >> 1 | ns << 79
        self._b = b >> 1 | nb << 79
        return z

    def _warm_up(self) -> None:
        """The 160 initialisation clocks with the output fed back."""
        if self.recorder is None and fastpath.enabled():
            self._b, self._s = _run_chunks(
                self._b, self._s, _INIT_STEPS // 16)
        else:
            for _ in range(_INIT_STEPS):
                self._step(feed_z=True)

    def _chunk(self) -> bytes:
        """The next 2 keystream bytes, one spec step at a time."""
        z = 0
        for i in range(16):
            z |= self._step(feed_z=False) << i
        return z.to_bytes(2, "little")

    # -- the RC4-compatible surface -----------------------------------------

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes."""
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        buffered = self._buffer
        if len(buffered) < length:
            chunks = (length - len(buffered) + 1) >> 1
            if self.recorder is None and fastpath.enabled():
                fresh, self._b, self._s = _keystream(
                    self._b, self._s, chunks)
            else:
                fresh = b"".join(self._chunk() for _ in range(chunks))
            buffered += fresh
        self._buffer = buffered[length:]
        return buffered[:length]

    def process(self, data) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with keystream)."""
        data = bytes(data)
        if not data:
            return b""
        stream = self.keystream(len(data))
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    def save_state(self):
        """Snapshot (NFSR, LFSR, leftover chunk bytes) for the record
        decoder's tamper rollback."""
        return self._b, self._s, self._buffer

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        self._b, self._s, self._buffer = snapshot
