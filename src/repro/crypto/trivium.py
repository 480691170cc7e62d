"""Trivium — the eSTREAM hardware-profile stream cipher.

The second of the lightweight designs Pourghasem et al. (PAPERS.md)
motivate for m-commerce bulk protection: De Cannière and Preneel's
288-bit shift-register cascade, chosen for the eSTREAM hardware
portfolio precisely because its gate count and energy per bit are a
fraction of a block cipher's.

Implementation shape
--------------------

The 288-bit state lives in three Python ints — A (s1..s93),
B (s94..s177), C (s178..s288) — in *reflected* layout: spec bit
``s_x`` sits at int bit ``(93 - x)`` / ``(177 - x)`` / ``(288 - x)``,
so the spec's "shift everything toward higher indices" is a plain
``>> 1`` with the new bit inserted at the top.  That layout is what
makes the fast path work: 64 consecutive spec steps read windows of
original state bits (every tap index clears the 64-step validity
bound), so one batched step computes 64 keystream bits with a handful
of shifts, ANDs and XORs — the software expression of the unrolled
hardware Trivium would be.  :func:`_run_64` runs every batch one
``keystream`` call (or the initialisation) needs in one loop frame.

Both dispatch paths advance the state in whole 64-bit (8-byte) chunks
and buffer leftover bytes, so :meth:`save_state` snapshots are
byte-identical whichever path produced them.

Conventions (documented because the KAT corpus freezes them): key and
IV bits load LSB-first within each byte (``K1`` is bit 0 of
``key[0]``), and keystream bits pack LSB-first within each output
byte (``z1`` is bit 0 of byte 0) — the eSTREAM C-reference style.
The suite key blob is ``key[10] || iv[10]``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import fastpath
from .errors import InvalidKeyLength

_M64 = (1 << 64) - 1
_A_BITS = 93
_B_BITS = 84
_C_BITS = 111
_INIT_STEPS = 4 * 288


# Every byte value with its bit order reversed.
_REVERSED = bytes(int(f"{value:08b}"[::-1], 2) for value in range(256))


def _load_reflected(data: bytes, width: int) -> int:
    """Bits of ``data`` LSB-first as spec bits 1.., reflected so spec
    bit x lands at int bit (width - x): with every byte bit-reversed,
    that is a big-endian read moved up to the register's top."""
    return int.from_bytes(data.translate(_REVERSED), "big") << (
        width - 8 * len(data))


def _run_64(a: int, b: int, c: int, chunks: int,
            parts: Optional[List[bytes]]) -> Tuple[int, int, int]:
    """``chunks`` batches of 64 spec steps on (A, B, C), each batch's 8
    keystream bytes appended to ``parts`` unless it is ``None``.

    Window shifts are ``register_width - x`` for each spec tap ``s_x``;
    all taps satisfy the 64-step validity bound (x >= 64 / 157 / 241),
    so every window reads pre-batch state bits only."""
    for _ in range(chunks):
        t1 = ((a >> 27) ^ a) & _M64                      # s66 ^ s93
        t2 = ((b >> 15) ^ b) & _M64                      # s162 ^ s177
        t3 = ((c >> 45) ^ c) & _M64                      # s243 ^ s288
        if parts is not None:
            parts.append((t1 ^ t2 ^ t3).to_bytes(8, "little"))
        f1 = t1 ^ (((a >> 2) & (a >> 1)) ^ (b >> 6)) & _M64   # + s91·s92 + s171
        f2 = t2 ^ (((b >> 2) & (b >> 1)) ^ (c >> 24)) & _M64  # + s175·s176 + s264
        f3 = t3 ^ (((c >> 2) & (c >> 1)) ^ (a >> 24)) & _M64  # + s286·s287 + s69
        a = (a >> 64) | (f3 << (_A_BITS - 64))
        b = (b >> 64) | (f1 << (_B_BITS - 64))
        c = (c >> 64) | (f2 << (_C_BITS - 64))
    return a, b, c


class Trivium:
    """Trivium keystream generator with the RC4-compatible interface.

    The key blob is either 10 bytes (key alone, zero IV) or the
    suite's 20 bytes (``key || iv``).
    """

    name = "TRIVIUM"
    block_size = 1
    key_size = 20

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) == 10:
            iv = b"\x00" * 10
        elif len(key) == 20:
            key, iv = key[:10], key[10:]
        else:
            raise InvalidKeyLength("TRIVIUM", len(key), "10 or 20")
        self.recorder = None
        # (s1..s93) = (K1..K80, 0^13); (s94..s177) = (IV1..IV80, 0^4);
        # (s178..s288) = (0^108, 1, 1, 1).
        self._a = _load_reflected(key, _A_BITS)
        self._b = _load_reflected(iv, _B_BITS)
        self._c = 0b111
        self._buffer = b""
        self._warm_up()

    # -- the cascade --------------------------------------------------------

    def _step_one(self) -> int:
        """One spec step; returns the keystream bit z."""
        a, b, c = self._a, self._b, self._c
        s = lambda reg, width, x: (reg >> (width - x)) & 1  # noqa: E731
        t1 = s(a, _A_BITS, 66) ^ s(a, _A_BITS, 93)
        t2 = s(b, _B_BITS, 162 - 93) ^ s(b, _B_BITS, 177 - 93)
        t3 = s(c, _C_BITS, 243 - 177) ^ s(c, _C_BITS, 288 - 177)
        z = t1 ^ t2 ^ t3
        t1 ^= (s(a, _A_BITS, 91) & s(a, _A_BITS, 92)) ^ s(b, _B_BITS, 171 - 93)
        t2 ^= (s(b, _B_BITS, 175 - 93) & s(b, _B_BITS, 176 - 93)) ^ s(
            c, _C_BITS, 264 - 177)
        t3 ^= (s(c, _C_BITS, 286 - 177) & s(c, _C_BITS, 287 - 177)) ^ s(
            a, _A_BITS, 69)
        self._a = (a >> 1) | (t3 << (_A_BITS - 1))
        self._b = (b >> 1) | (t1 << (_B_BITS - 1))
        self._c = (c >> 1) | (t2 << (_C_BITS - 1))
        return z

    def _warm_up(self) -> None:
        """The 4 x 288 initialisation steps, output discarded."""
        if self.recorder is None and fastpath.enabled():
            self._a, self._b, self._c = _run_64(
                self._a, self._b, self._c, _INIT_STEPS // 64, None)
        else:
            for _ in range(_INIT_STEPS):
                self._step_one()

    def _chunk(self) -> bytes:
        """The next 8 keystream bytes, one spec step at a time."""
        z = 0
        for i in range(64):
            z |= self._step_one() << i
        return z.to_bytes(8, "little")

    # -- the RC4-compatible surface -----------------------------------------

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes (whole 8-byte
        chunks, the leftover bytes kept for the next call)."""
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        buffered = self._buffer
        if len(buffered) < length:
            chunks = (length - len(buffered) + 7) // 8
            if self.recorder is None and fastpath.enabled():
                parts: List[bytes] = []
                self._a, self._b, self._c = _run_64(
                    self._a, self._b, self._c, chunks, parts)
            else:
                parts = [self._chunk() for _ in range(chunks)]
            buffered += b"".join(parts)
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
        """Snapshot (registers, leftover chunk bytes) for the record
        decoder's tamper rollback."""
        return self._a, self._b, self._c, self._buffer

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        self._a, self._b, self._c, self._buffer = snapshot
