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
4-bit clock windows; the two halves' step masks OR into each register's
8-step mask, and one selection lookup by that mask and the register's
top nine bits gives its share of the output byte.  Every register
shifts once per byte, its feedback bits looked up by clock count in
byte tables over its tap bits.  The key/frame load is linear over
GF(2), so it is 11 byte-indexed table lookups (see :func:`_a51_tables`).
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

_A51_TABLES: Optional[tuple] = None


def _parity(word: int) -> int:
    """Parity of the set bits — the LFSR feedback function."""
    return bin(word).count("1") & 1


def _majority_tables() -> Tuple[list, list]:
    """``(first, second)``, the 4-step majority halves by the three
    4-bit clock windows (see :func:`_a51_tables`), derived from the
    windows step by step."""
    # packed[w1 | w2 << k | w3 << 2k] holds the three k-step clock masks
    # of k-bit windows, 4 bits apart, step 0 at bit k - 1.  A step votes
    # on the windows' top bits; a clocked register's window then drops
    # its top bit, an idle one its lowest.
    packed = [0]
    for k in range(1, 5):
        top, low, width = k - 1, (1 << k - 1) - 1, (1 << k) - 1
        shorter, packed = packed, []
        for index in range(1 << 3 * k):
            w1, w2, w3 = index & width, index >> k & width, index >> 2 * k
            vote = (w1 >> top) + (w2 >> top) + (w3 >> top) >= 2
            c1, c2, c3 = (w1 >> top == vote, w2 >> top == vote,
                          w3 >> top == vote)
            w1 = w1 & low if c1 else w1 >> 1
            w2 = w2 & low if c2 else w2 >> 1
            w3 = w3 & low if c3 else w3 >> 1
            packed.append(shorter[w1 | w2 << top | w3 << 2 * top]
                          | (c1 | c2 << 4 | c3 << 8) << top)
    entries, lifted = {}, [[mask << shift for mask in range(16)]
                           for shift in (13, 9)]
    for word in set(packed):
        masks = (word & 15, word >> 4 & 15, word >> 8)
        counts = tuple(bin(mask).count("1") for mask in masks)
        entries[word] = [counts + tuple(half[mask] for mask in masks)
                         for half in lifted]
    return ([entries[word][0] for word in packed],
            [entries[word][1] for word in packed])


def _linear_table(columns, flips) -> bytes:
    """The byte table of the GF(2)-linear map that sends input bit ``j``
    to ``columns[j]``: each input bit doubles the table, its upper half
    the lower one XORed with that column (``flips[c]`` is the
    ``translate`` table of XOR with ``c``)."""
    table = b"\0"
    for column in columns:
        table += table.translate(flips[column])
    return table


def _select_table(flips) -> bytes:
    """Per 8-bit step mask, output bit ``7 - s`` reads top bit
    ``8 - (clocks so far)``: a linear map of the top nine bits."""
    parts = []
    for mask in range(256):
        columns, clocks = [0] * 9, 0
        for step in range(8):
            clocks += mask >> (7 - step) & 1
            columns[8 - clocks] |= 0x80 >> step
        parts.append(_linear_table(columns, flips))
    return b"".join(parts)


def _feedback_tables(taps: int, base: int, width: int, flips) -> tuple:
    """Per clock count ``n`` (0..8), a byte table of the ``n`` feedback
    bits that register bits ``base .. base + width - 1`` contribute,
    indexed by those bits.  Step ``t``'s feedback bit XORs the taps
    moved down by ``t`` and lands at bit ``n - 1 - t``."""
    full = _linear_table(
        [sum((taps >> (q + t) & 1) << (7 - t) for t in range(8))
         for q in range(base, base + width)], flips)
    return tuple(full.translate(bytes(v >> (8 - n) for v in range(256)))
                 for n in range(9))


def _load_tables() -> list:
    """``load[j][v]`` (see :func:`_a51_tables`)."""
    # The load clocks start from zero and are linear, so input bit p
    # (key bits 0..63, frame bits 64..85) contributes the state
    # (1, 1, 1) clocked 85 - p more times.  Bits 86 and 87 of the last
    # frame byte lie above the 22-bit frame number.
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
    return load


def _a51_tables() -> tuple:
    """The fast-path tables ``(first, second, select, feedback, load)``,
    built on first use.

    * ``first[w1 | w2 << 4 | w3 << 8]``, for the clock windows R1 bits
      8..5 and R2/R3 bits 10..7, is ``(n1, n2, n3, m1, m2, m3)``: how
      often each register clocks in four majority steps, and on which
      (step 0 at bit 16, step 3 at bit 13); ``second`` is the same with
      the mask at bits 12..9, for steps 4..7;
    * ``select[mask << 9 | top]`` is the output byte of one register
      that clocks on the 8-bit ``mask``'s steps, ``top`` being its nine
      highest bits;
    * ``feedback`` is ``(f1, f2, f3, f3low)`` from
      :func:`_feedback_tables`: R1's indexed by bits 18..6, R2's by
      bits 21..13, and R3's the XOR of one by bits 22..13 and one by
      bits 7..0;
    * ``load[j][v]`` is the packed ``r1 | r2 << 19 | r3 << 41`` state
      the 86 load clocks make of value ``v`` at input byte ``j`` (key
      bytes 0..7, then the frame number LSB-first).
    """
    global _A51_TABLES
    if _A51_TABLES is None:
        first, second = _majority_tables()
        flips = [bytes(range(256))]
        for bit in (1, 2, 4, 8, 16, 32, 64, 128):
            xor = bytes(v ^ bit for v in range(256))
            flips += [flip.translate(xor) for flip in flips]
        feedback = (_feedback_tables(_R1_TAPS, 6, 13, flips),
                    _feedback_tables(_R2_TAPS, 13, 9, flips),
                    _feedback_tables(_R3_TAPS, 13, 10, flips),
                    _feedback_tables(_R3_TAPS, 0, 8, flips))
        _A51_TABLES = (first, second, _select_table(flips), feedback,
                       _load_tables())
    return _A51_TABLES


def _run_bytes(r1: int, r2: int, r3: int,
               out: bytearray) -> Tuple[int, int, int]:
    """Clock the registers 8 majority steps per byte of ``out`` and
    write each byte's keystream into it; returns the new registers."""
    first, second, select, (f1, f2, f3, f3low), _ = _a51_tables()
    mask1, mask2, mask3 = _R1_MASK, _R2_MASK, _R3_MASK
    for i in range(len(out)):
        # Steps 0-3 read R1 bits 8..5 and R2/R3 bits 10..7; steps 4-7
        # the same windows moved down by the clocks just taken.
        n1, n2, n3, s1, s2, s3 = first[
            (r1 >> 5 & 15) | (r2 >> 3 & 0xF0) | (r3 << 1 & 0xF00)]
        k1, k2, k3, t1, t2, t3 = second[
            (r1 << n1 >> 5 & 15) | (r2 << n2 >> 3 & 0xF0)
            | (r3 << n3 << 1 & 0xF00)]
        # A register's top nine bits need no mask.
        out[i] = (select[s1 | t1 | r1 >> 10] ^ select[s2 | t2 | r2 >> 13]
                  ^ select[s3 | t3 | r3 >> 14])
        # One shift per register; the feedback bits read only pre-byte
        # bits while n <= 8 (R3's lowest tap is bit 7).
        n1 += k1
        n2 += k2
        n3 += k3
        r1 = r1 << n1 & mask1 | f1[n1][r1 >> 6]
        r2 = r2 << n2 & mask2 | f2[n2][r2 >> 13]
        r3 = r3 << n3 & mask3 | f3[n3][r3 >> 13] ^ f3low[n3][r3 & 255]
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
        lookups, the mixing clocks 12 kernel bytes and one 4-step
        majority lookup."""
        first, _, _, (f1, f2, f3, f3low), load = _a51_tables()
        state = (load[0][key[0]] ^ load[1][key[1]] ^ load[2][key[2]]
                 ^ load[3][key[3]] ^ load[4][key[4]] ^ load[5][key[5]]
                 ^ load[6][key[6]] ^ load[7][key[7]]
                 ^ load[8][frame & 255] ^ load[9][frame >> 8 & 255]
                 ^ load[10][frame >> 16])
        r1, r2, r3 = _run_bytes(state & _R1_MASK, state >> 19 & _R2_MASK,
                                state >> 41, bytearray(12))
        n1, n2, n3 = first[
            (r1 >> 5 & 15) | (r2 >> 3 & 0xF0) | (r3 << 1 & 0xF00)][:3]
        return (r1 << n1 & _R1_MASK | f1[n1][r1 >> 6],
                r2 << n2 & _R2_MASK | f2[n2][r2 >> 13],
                r3 << n3 & _R3_MASK | f3[n3][r3 >> 13] ^ f3low[n3][r3 & 255])

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
