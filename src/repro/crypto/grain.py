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
pre-batch state bits (the 16-step validity bound ``64 + 15 <= 79``),
and one batched step computes 16 keystream bits with shifted windows —
Grain's own designers describe exactly this x16 speedup as the
hardware trade-off.  :func:`_run_chunks` runs every batch one
``keystream`` call (or the initialisation) needs in one loop frame,
with both registers in locals, each window shifted once and masked to
16 bits before the nonlinear terms, and the output written into one
preallocated buffer.

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

from typing import Optional, Tuple

from . import fastpath
from .errors import InvalidKeyLength

_M16 = 0xFFFF
_INIT_STEPS = 160


def _run_chunks(b: int, s: int, chunks: int,
                out: Optional[bytearray]) -> Tuple[int, int]:
    """``chunks`` batches of 16 spec steps on (NFSR ``b``, LFSR ``s``).

    With ``out`` the keystream of batch i lands LSB-first in
    ``out[2i:2i+2]``; with ``None`` it is folded back into both
    feedbacks (initialisation mode).  Returns the new registers.
    """
    for j in range(0, 2 * chunks, 2):
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
        ns = (s >> 62 ^ s >> 51 ^ s >> 38 ^ s >> 23 ^ s >> 13 ^ s) & _M16
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
        nb = (((s ^ b >> 62 ^ b >> 14 ^ b) & _M16)
              ^ b60 ^ b52 ^ b45 ^ b37 ^ b33 ^ b28 ^ b21 ^ b9
              ^ b63_60 ^ b37_33 ^ b15_9 ^ (b60 & b52_45) ^ b33_28_21
              ^ (b63 & b45 & b28 & b9) ^ (b60 & b52 & b37_33)
              ^ (b63_60 & b21 & b15) ^ (b63_60 & b52_45 & b37)
              ^ (b33_28_21 & b15_9) ^ (b52_45 & b37 & b33_28_21))
        if out is None:
            ns ^= z
            nb ^= z
        else:
            out[j] = z & 255
            out[j + 1] = z >> 8
        s = s >> 16 | ns << 64
        b = b >> 16 | nb << 64
    return b, s


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
                self._b, self._s, _INIT_STEPS // 16, None)
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
        buffered = self._buffer
        if len(buffered) < length:
            out = bytearray((length - len(buffered) + 1) & ~1)
            if self.recorder is None and fastpath.enabled():
                self._b, self._s = _run_chunks(
                    self._b, self._s, len(out) // 2, out)
            else:
                for j in range(0, len(out), 2):
                    out[j:j + 2] = self._chunk()
            buffered += out
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
