"""A5/1-class LFSR stream cipher — the GSM legacy suite's engine.

Pourghasem et al. ("Light Weight Implementation of Stream Ciphers for
M-Commerce", PAPERS.md) motivate LFSR-class designs as the cheapest
point on the energy/throughput curve for handset bulk protection; A5/1
is *the* deployed example of the class, shipping in every GSM handset
of the paper's era.  This module implements the standard three-register
majority-clocked generator (19/22/23-bit registers, as published by
Briceno, Goldberg and Wagner's pedagogical implementation) in two
forms:

* the GSM frame discipline — :meth:`A51.burst` yields the authentic
  228-bit dual burst (114 bits A→B, 114 bits B→A) for a (key, frame)
  pair, pinned against the published pedagogical test vector in the
  conformance corpus; and
* a continuous record-layer keystream — after the same key/frame/mix
  schedule the generator simply keeps majority-clocking, so the first
  114 bits of the continuous stream equal the A→B burst and the suite
  can protect arbitrary-length records.

The 11-byte suite key blob is ``key[8] || frame_tag[3]``: the record
layers never pass stream ciphers an IV, so the per-record WTLS rekey
(``key XOR sequence``) lands in the trailing frame-tag bytes — exactly
GSM's frame-number re-keying, recreated by the suite plumbing.

Keystream bits leave the generator MSB-first within each byte (the
convention of the published vector).  Both dispatch paths produce
bytes whole-byte-at-a-time from the same register representation, so
:meth:`save_state` snapshots are byte-identical across paths.

The fast path is a byte kernel.  A register clocked ``k`` times reads
its clock bit from the bit that sat ``k`` places lower, and a byte
clocks a register at most 8 times, so all 8 clock decisions of a byte
read bits present before it (R1 bits 8..1, R2/R3 bits 10..3).  Each
4-step half is one lookup in a majority table indexed by the three
4-bit clock windows; a selection table then turns each register's step
mask and top five bits into its share of the four output bits.  Every
register shifts once per byte, its feedback bits computed
word-parallel.  The key/frame load is linear over GF(2), so it is 11
byte-indexed table lookups (see :func:`_a51_tables`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import fastpath
from .errors import InvalidKeyLength

# Register widths/masks and feedback taps, MSB = output bit.
_R1_MASK = 0x07FFFF            # 19 bits
_R2_MASK = 0x3FFFFF            # 22 bits
_R3_MASK = 0x7FFFFF            # 23 bits
_R1_TAPS = 0x072000            # bits 18, 17, 16, 13
_R2_TAPS = 0x300000            # bits 21, 20
_R3_TAPS = 0x700080            # bits 22, 21, 20, 7
_R1_CLOCK = 0x000100           # clocking bit 8
_R2_CLOCK = 0x000400           # clocking bit 10
_R3_CLOCK = 0x000400           # clocking bit 10
_R1_OUT = 18
_R2_OUT = 21
_R3_OUT = 22

_FRAME_MASK = 0x3FFFFF         # GSM frame numbers are 22 bits

_LOW = tuple((1 << n) - 1 for n in range(9))   # n feedback bits

_A51_TABLES: Optional[tuple] = None


def _parity(word: int) -> int:
    """Parity of the set bits — the LFSR feedback function."""
    return bin(word).count("1") & 1


def _a51_tables() -> tuple:
    """The fast-path tables ``(majority, select, load)``, derived from
    the reference clock functions on first use.

    * ``majority[w1 | w2 << 4 | w3 << 8]``, for the clock windows R1
      bits 8..5 and R2/R3 bits 10..7, is ``(n1, n2, n3, m1, m2, m3)``:
      how often each register clocks in four majority steps, and on
      which steps (step 0 at mask bit 3, shifted into ``select``
      index position);
    * ``select[mask << 5 | top]`` is the output nibble of one register
      that clocks on ``mask``'s steps, ``top`` being its five highest
      bits;
    * ``load[j][v]`` is the packed ``r1 | r2 << 19 | r3 << 41`` state
      the 86 load clocks make of value ``v`` at input byte ``j`` (key
      bytes 0..7, then the frame number LSB-first).
    """
    global _A51_TABLES
    if _A51_TABLES is None:
        majority, entries = [], {}
        for index in range(4096):
            # The windows sit at the clock bits over a marker at bit 0,
            # so no register is zero and every clocked one changes (an
            # LFSR step fixes only the zero state).
            regs = ((index & 15) << 5 | 1, (index >> 4 & 15) << 7 | 1,
                    (index >> 8) << 7 | 1)
            counts, masks = [0, 0, 0], [0, 0, 0]
            for step in range(4):
                clocked = A51._clock_majority(*regs)
                for i in range(3):
                    if clocked[i] != regs[i]:
                        counts[i] += 1
                        masks[i] |= 8 >> step
                regs = clocked
            entry = (*counts, *(mask << 5 for mask in masks))
            majority.append(entries.setdefault(entry, entry))
        select = []
        for index in range(512):
            nibble = clocks = 0
            for step in range(4):
                clocks += index >> (8 - step) & 1
                nibble = nibble << 1 | (index >> (4 - clocks) & 1)
            select.append(nibble)
        # The load clocks start from zero and are linear, so input bit p
        # (key bits 0..63, frame bits 64..85) contributes the state
        # (1, 1, 1) clocked 85 - p more times.  Bits 86 and 87 of the
        # last frame byte lie above the 22-bit frame number.
        units, regs = [], (1, 1, 1)
        for _ in range(86):
            units.append(regs[0] | regs[1] << 19 | regs[2] << 41)
            regs = A51._clock_all(*regs)
        units = units[::-1] + [0, 0]
        load = []
        for j in range(11):
            table = [0] * 256
            for value in range(1, 256):
                low = value & -value
                table[value] = (table[value ^ low]
                                ^ units[8 * j + low.bit_length() - 1])
            load.append(table)
        _A51_TABLES = (majority, select, load)
    return _A51_TABLES


def _run_bytes(r1: int, r2: int, r3: int,
               out: bytearray) -> Tuple[int, int, int]:
    """Clock the registers 8 majority steps per byte of ``out`` and
    write each byte's keystream into it; returns the new registers."""
    majority, select, _ = _a51_tables()
    low = _LOW
    for i in range(len(out)):
        # Steps 0-3 read R1 bits 8..5 and R2/R3 bits 10..7; a register's
        # top five bits need no mask.
        n1, n2, n3, m1, m2, m3 = majority[
            (r1 >> 5 & 15) | (r2 >> 3 & 0xF0) | (r3 << 1 & 0xF00)]
        high = select[m1 | r1 >> 14] ^ select[m2 | r2 >> 17] ^ select[m3 | r3 >> 18]
        # Steps 4-7: every window moves down by the clocks just taken.
        t1, t2, t3 = r1 << n1, r2 << n2, r3 << n3
        k1, k2, k3, m1, m2, m3 = majority[
            (t1 >> 5 & 15) | (t2 >> 3 & 0xF0) | (t3 << 1 & 0xF00)]
        out[i] = high << 4 | (select[m1 | t1 >> 14 & 31]
                              ^ select[m2 | t2 >> 17 & 31]
                              ^ select[m3 | t3 >> 18 & 31])
        # One shift per register.  Feedback bit t XORs the taps moved
        # down by t, all still pre-byte bits while n <= 8 (R3's lowest
        # tap is bit 7).
        n1 += k1
        n2 += k2
        n3 += k3
        r1 = ((r1 << n1 & _R1_MASK)
              | (r1 ^ r1 << 1 ^ r1 << 2 ^ r1 << 5) >> (19 - n1) & low[n1])
        r2 = ((r2 << n2 & _R2_MASK)
              | (r2 ^ r2 << 1) >> (22 - n2) & low[n2])
        r3 = ((r3 << n3 & _R3_MASK)
              | (r3 ^ r3 << 1 ^ r3 << 2 ^ r3 << 15) >> (23 - n3) & low[n3])
    return r1, r2, r3


class A51:
    """A5/1 keystream generator with the RC4-compatible interface.

    The key blob is either 8 bytes (key alone, frame tag 0) or the
    suite's 11 bytes (``key || frame_tag``, frame tag big-endian,
    truncated to 22 bits).  One instance per direction per key, as
    with :class:`~repro.crypto.rc4.RC4`.
    """

    name = "A51"
    block_size = 1
    key_size = 11

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) == 8:
            frame = 0
        elif len(key) == 11:
            frame = int.from_bytes(key[8:], "big") & _FRAME_MASK
            key = key[:8]
        else:
            raise InvalidKeyLength("A51", len(key), "8 or 11")
        self.recorder = None
        schedule = self._schedule_fast if fastpath.enabled() else self._schedule
        self._r1, self._r2, self._r3 = schedule(key, frame)

    # -- key/frame schedule -------------------------------------------------

    @staticmethod
    def _clock_all(r1: int, r2: int, r3: int) -> Tuple[int, int, int]:
        """Clock every register (key/frame loading ignores majority)."""
        r1 = ((r1 << 1) & _R1_MASK) | _parity(r1 & _R1_TAPS)
        r2 = ((r2 << 1) & _R2_MASK) | _parity(r2 & _R2_TAPS)
        r3 = ((r3 << 1) & _R3_MASK) | _parity(r3 & _R3_TAPS)
        return r1, r2, r3

    @staticmethod
    def _clock_majority(r1: int, r2: int, r3: int) -> Tuple[int, int, int]:
        """Clock the registers agreeing with the majority clocking bit."""
        c1 = r1 & _R1_CLOCK
        c2 = r2 & _R2_CLOCK
        c3 = r3 & _R3_CLOCK
        majority1 = bool(c1) + bool(c2) + bool(c3) >= 2
        if bool(c1) == majority1:
            r1 = ((r1 << 1) & _R1_MASK) | _parity(r1 & _R1_TAPS)
        if bool(c2) == majority1:
            r2 = ((r2 << 1) & _R2_MASK) | _parity(r2 & _R2_TAPS)
        if bool(c3) == majority1:
            r3 = ((r3 << 1) & _R3_MASK) | _parity(r3 & _R3_TAPS)
        return r1, r2, r3

    @classmethod
    def _schedule(cls, key: bytes, frame: int) -> Tuple[int, int, int]:
        """64 key clocks + 22 frame clocks (all-clocked, bit XORed into
        the LSB after the shift, bits taken LSB-first per byte) + 100
        majority-clocked mixing rounds — the published A5/1 schedule."""
        r1 = r2 = r3 = 0
        for i in range(64):
            r1, r2, r3 = cls._clock_all(r1, r2, r3)
            bit = (key[i >> 3] >> (i & 7)) & 1
            r1 ^= bit
            r2 ^= bit
            r3 ^= bit
        for i in range(22):
            r1, r2, r3 = cls._clock_all(r1, r2, r3)
            bit = (frame >> i) & 1
            r1 ^= bit
            r2 ^= bit
            r3 ^= bit
        for _ in range(100):
            r1, r2, r3 = cls._clock_majority(r1, r2, r3)
        return r1, r2, r3

    @classmethod
    def _schedule_fast(cls, key: bytes, frame: int) -> Tuple[int, int, int]:
        """:meth:`_schedule` from the tables: the load clocks are 11
        lookups, the mixing clocks 12 kernel bytes and 4 more clocks."""
        load = _a51_tables()[2]
        state = (load[0][key[0]] ^ load[1][key[1]] ^ load[2][key[2]]
                 ^ load[3][key[3]] ^ load[4][key[4]] ^ load[5][key[5]]
                 ^ load[6][key[6]] ^ load[7][key[7]]
                 ^ load[8][frame & 255] ^ load[9][frame >> 8 & 255]
                 ^ load[10][frame >> 16])
        r1, r2, r3 = _run_bytes(state & _R1_MASK, state >> 19 & _R2_MASK,
                                state >> 41, bytearray(12))
        for _ in range(4):
            r1, r2, r3 = cls._clock_majority(r1, r2, r3)
        return r1, r2, r3

    # -- continuous keystream ----------------------------------------------

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes (8 majority
        clocks per byte, output bits MSB-first)."""
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        if self.recorder is None and fastpath.enabled():
            out = bytearray(length)
            self._r1, self._r2, self._r3 = _run_bytes(
                self._r1, self._r2, self._r3, out)
            return bytes(out)
        out = bytearray()
        r1, r2, r3 = self._r1, self._r2, self._r3
        for _ in range(length):
            byte = 0
            for _ in range(8):
                r1, r2, r3 = self._clock_majority(r1, r2, r3)
                bit = ((r1 >> _R1_OUT) ^ (r2 >> _R2_OUT) ^ (r3 >> _R3_OUT)) & 1
                byte = (byte << 1) | bit
            out.append(byte)
        self._r1, self._r2, self._r3 = r1, r2, r3
        return bytes(out)

    def process(self, data) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with keystream)."""
        data = bytes(data)
        if not data:
            return b""
        stream = self.keystream(len(data))
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    # -- transactional state -----------------------------------------------

    def save_state(self):
        """Snapshot the register triple; the record decoder rewinds to
        it when a tampered record must not consume keystream."""
        return self._r1, self._r2, self._r3

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        self._r1, self._r2, self._r3 = snapshot

    # -- the authentic GSM frame discipline ---------------------------------

    @classmethod
    def burst(cls, key: bytes, frame: int) -> Tuple[bytes, bytes]:
        """The 228-bit GSM dual burst for one (key, frame) pair.

        Returns ``(a_to_b, b_to_a)``: two 114-bit bursts packed
        MSB-first into 15 bytes each (the last byte zero-padded) —
        the exact shape of the published pedagogical test vector.
        """
        if len(key) != 8:
            raise InvalidKeyLength("A51", len(key), "8")
        blob = bytes(key) + (frame & _FRAME_MASK).to_bytes(3, "big")
        # 29 continuous bytes are 232 bits; the burst pair is the first 228.
        bits = int.from_bytes(cls(blob).keystream(29), "big") >> 4
        return ((bits >> 114) << 6).to_bytes(15, "big"), \
            ((bits & ((1 << 114) - 1)) << 6).to_bytes(15, "big")
