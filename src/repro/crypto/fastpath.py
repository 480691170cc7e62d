"""Precomputed fast-path kernels for the hot symmetric-crypto loops.

Section 3.2 of the paper quantifies the *security processing gap*:
bit permutations, S-box lookups and rotates dominate the cycle budget
of software crypto on general-purpose processors.  Section 4.2.1's
answer is precomputation and specialised kernels (SmartMIPS-style ISA
extensions, MOSES-class engines).  This module is the software
expression of that answer for our own reproduction, which pays the
same cost for real: the readable reference loops in
:mod:`repro.crypto.aes`, :mod:`repro.crypto.des` et al. stay the
ground truth, and the kernels here are bit-for-bit equivalent
replacements for the probe-free common case.

Three families of kernel live here:

* **AES** — encryption runs four 256-entry T-tables fusing SubBytes,
  ShiftRows and MixColumns into one lookup+XOR per state byte, a block
  at a time, because CBC encryption chains; :func:`aes_cbc` runs a
  whole CBC record in one call.  Decryption does not chain, so
  :func:`aes_cbc_decrypt` runs every block of a record at once as one
  wide int: InvShiftRows by masks and shifts, then four
  ``bytes.translate`` tables fusing InvSubBytes with the InvMixColumns
  multipliers.  Every table is derived programmatically from
  :data:`repro.crypto.aes.SBOX` and GF(2^8) arithmetic, so nothing is
  transcribed.
* **DES and 3DES** — every FIPS 46-3 bit permutation (IP, FP)
  becomes a handful of per-byte lookups via
  :func:`byte_permutation_tables`, and the whole key schedule (PC1,
  rotations, PC2) sixteen per-nibble ones.  The loop kernel keeps both
  Feistel halves E-expanded, so a round is the round-key XOR plus four
  lookups into S-box-pair tables that already emit E(P(S));
  :func:`des_cbc` runs a whole CBC record, all three passes of 3DES
  per block, in one call (see :func:`_des_tables`).  It encrypts, since
  CBC encryption chains, and decrypts records shorter than
  :data:`DES_WIDE_MIN_BLOCKS`.  Longer records decrypt in
  :func:`des_cbc_decrypt`, which runs every block through each round at
  once: both halves are wide ints with a 32-bit lane per block, and
  eight ``bytes.translate`` tables fusing S with P give f for every
  lane.  A wide round has a fixed cost, so it loses to the loop below
  about ten blocks and wins 1.7× at 18 blocks and 3.4–3.7× at 130.
* **hash delegation** — SHA-1/MD5 whole-message hashing is handed to
  the platform's optimised primitive (:mod:`hashlib`, the software
  stand-in for the paper's crypto accelerator) when available; the
  from-scratch compression functions remain the instrumented reference
  and the differential tests pin the two bit-for-bit.

Packed schedules
----------------

A keyed cipher hands its kernel one packed big-endian ``bytes``
schedule per direction it runs (:func:`aes_encrypt_schedule`,
:func:`aes_decrypt_schedule`, :func:`des_schedule`): 176 bytes for
AES-128, 384 for 3DES.  The block-at-a-time kernels unpack it into
round-key quads once per record call with :func:`struct.iter_unpack`,
about 2 µs against a 55 µs three-block AES record; the wide AES
decryption repeats each 16-byte round key across the record, and the
wide DES decryption derives its per-round key words from the packed
lanes and repeats them the same way.  The
paper's §4 platform is bound by memory as much as by cycles: a gateway
keeps four record ciphers per handset session, and as tuples of boxed
ints their schedules would pin 3.5–4 KiB each where the key material
is a tenth of that.

The switch
----------

:func:`enabled` is consulted by the cipher/hash classes on every
block, and by :class:`~repro.crypto.modes.CBC` on every record (through
:func:`dispatch_path`).  The fast path is used only when **no**
:class:`~repro.crypto.trace.TraceRecorder` is attached — a probed
cipher always takes the reference loops so the DPA/timing simulators
in :mod:`repro.attacks` keep observing true intermediate values.  Set
``REPRO_FASTPATH=0`` in the environment (or call :func:`disable`) to
force the reference path globally, e.g. when validating the cost
models in :mod:`repro.hardware.cycles` against honest software loops.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from typing import List, Optional, Sequence, Tuple

from ..observability import probe

MASK32 = 0xFFFFFFFF

_ENABLED = os.environ.get("REPRO_FASTPATH", "1").lower() not in (
    "0", "false", "off", "no",
)


def enabled() -> bool:
    """True when the fast-path kernels should be used."""
    return _ENABLED


def dispatch_path(recorder=None) -> str:
    """Which implementation the dispatch seam will pick right now:
    ``"fast"`` (precomputed kernels) or ``"reference"`` (the readable
    loops — always taken when a trace recorder is attached)."""
    return "fast" if recorder is None and _ENABLED else "reference"


def enable() -> None:
    """Turn the fast-path kernels on globally."""
    global _ENABLED
    if not _ENABLED:
        probe.event("fastpath.switch", enabled=True)
    _ENABLED = True


def disable() -> None:
    """Force every cipher/hash onto the reference loops globally."""
    global _ENABLED
    if _ENABLED:
        probe.event("fastpath.switch", enabled=False)
    _ENABLED = False


@contextlib.contextmanager
def force(flag: bool):
    """Temporarily force the switch; restores the prior state on exit."""
    global _ENABLED
    previous = _ENABLED
    if previous != bool(flag):
        probe.event("fastpath.switch", enabled=bool(flag), forced=True)
    _ENABLED = bool(flag)
    try:
        yield
    finally:
        if _ENABLED != previous:
            probe.event("fastpath.switch", enabled=previous, forced=True)
        _ENABLED = previous


# ---------------------------------------------------------------------------
# AES: T-tables for encryption, one wide int per record for decryption
# ---------------------------------------------------------------------------

_AES_ENC_TABLES: Optional[Tuple[List[int], ...]] = None
_AES_INV_TABLES: Optional[Tuple[bytes, ...]] = None


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & MASK32


def _aes_enc_tables() -> Tuple[List[int], ...]:
    """T0..T3: T0[x] packs (2·S[x], S[x], S[x], 3·S[x]); Ti rotates T0.

    Column word j of the next state is
    ``T0[b0] ^ T1[b1] ^ T2[b2] ^ T3[b3] ^ rk[j]`` where ``b_r`` is the
    row-*r* byte ShiftRows moves into column j — the whole round in
    four lookups and four XORs per word.
    """
    global _AES_ENC_TABLES
    if _AES_ENC_TABLES is None:
        from .aes import SBOX, _gf_mul

        t0 = []
        for x in range(256):
            s = SBOX[x]
            s2 = _gf_mul(s, 2)
            t0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
        t1 = [_rotr8(t) for t in t0]
        t2 = [_rotr8(t) for t in t1]
        t3 = [_rotr8(t) for t in t2]
        _AES_ENC_TABLES = (t0, t1, t2, t3, SBOX)
    return _AES_ENC_TABLES


def _aes_inv_tables() -> Tuple[bytes, ...]:
    """``bytes.translate`` tables for the wide inverse cipher: InvS
    fused with each InvMixColumns multiplier (0e, 0b, 0d, 09), then
    InvS alone and S (which :func:`aes_decrypt_schedule` uses to undo
    the InvS of a key)."""
    global _AES_INV_TABLES
    if _AES_INV_TABLES is None:
        from .aes import INV_SBOX, SBOX, _gf_mul

        _AES_INV_TABLES = (
            *(bytes(_gf_mul(u, m) for u in INV_SBOX) for m in (14, 11, 13, 9)),
            bytes(INV_SBOX), bytes(SBOX))
    return _AES_INV_TABLES


# 16-byte (one block) patterns, as ints, of the byte masks the wide
# inverse cipher repeats across a record.  Row r of column c is byte
# 4c + r of the block.  InvShiftRows turns row r right by r columns in
# two steps: rows 1 and 3 by one column, then rows 2 and 3 by two.  A
# step keeps the other rows (``_KEEP``) and takes each turned row from
# a right shift within the block (``_IN``) or, for the columns that
# wrap round, from a left shift (``_WRAP``).  ``_HI24``/``_LO8`` split
# each column for a one-byte rotation.
_KEEP1 = 0xFF00FF00FF00FF00FF00FF00FF00FF00
_IN1, _WRAP1 = 0x0000000000FF00FF00FF00FF00FF00FF, 0x00FF00FF000000000000000000000000
_KEEP2 = 0xFFFF0000FFFF0000FFFF0000FFFF0000
_IN2, _WRAP2 = 0x00000000000000000000FFFF0000FFFF, 0x0000FFFF0000FFFF0000000000000000
_HI24 = 0xFFFFFF00FFFFFF00FFFFFF00FFFFFF00
_LO8 = 0x000000FF000000FF000000FF000000FF
_LOW_BYTE = bytes(15) + b"\x01"
#: One AES block as four big-endian words.  :func:`aes_cbc` reads and
#: writes records a block at a time through this one format: a format
#: per record length would grow :mod:`struct`'s cache of compiled
#: formats with every length.
_BLOCK128 = struct.Struct(">4I")


def _pack_words(quads) -> bytes:
    """Round-key quads as one big-endian ``bytes`` schedule."""
    words = [word for quad in quads for word in quad]
    return struct.pack(f">{len(words)}I", *words)


def _inv_mix_sub(state: bytes, hi24: int, lo8: int) -> int:
    """InvMixColumns(InvSubBytes(``state``)) over any number of blocks,
    as one big-endian int; ``hi24``/``lo8`` are :data:`_HI24` and
    :data:`_LO8` repeated across the blocks.

    Row r of a column is ``0e·a[r] ^ 0b·a[r+1] ^ 0d·a[r+2] ^ 09·a[r+3]``
    for a = InvS(column).  Each product is one ``translate`` over the
    whole buffer, and the three byte rotations within each column run
    Horner-style: ``E ^ rot(B ^ rot(D ^ rot(N)))``.
    """
    te, tb, td, t9, _, _ = _aes_inv_tables()
    x = int.from_bytes(state.translate(t9), "big")
    x = int.from_bytes(state.translate(td), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)
    x = int.from_bytes(state.translate(tb), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)
    return int.from_bytes(state.translate(te), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)


def aes_encrypt_schedule(round_keys: Sequence[Sequence[int]]) -> bytes:
    """The :func:`aes_cbc` schedule: the round keys of
    :func:`repro.crypto.aes.key_expansion`, packed big-endian, round 0
    first (176 bytes for AES-128)."""
    return _pack_words(round_keys)


def aes_decrypt_schedule(round_keys: Sequence[Sequence[int]]) -> bytes:
    """Equivalent-inverse-cipher key schedule for :func:`aes_cbc_decrypt`.

    The round keys in reverse order, InvMixColumns applied to every
    inner one, packed like :func:`aes_encrypt_schedule`: K10,
    InvMix(K9) … InvMix(K1), K0 for AES-128.  The inner keys go through
    one wide :func:`_inv_mix_sub`, after an S translate cancels its
    InvS.  Computed once per :class:`~repro.crypto.aes.AES` instance
    that decrypts.
    """
    inner = _pack_words(round_keys[-2:0:-1]).translate(_aes_inv_tables()[5])
    ones = int.from_bytes(_LOW_BYTE * (len(inner) >> 4), "big")
    mixed = _inv_mix_sub(inner, _HI24 * ones, _LO8 * ones)
    return (_pack_words(round_keys[-1:]) + mixed.to_bytes(len(inner), "big")
            + _pack_words(round_keys[:1]))


def aes_cbc(data, iv: int, schedule: bytes) -> bytes:
    """T-table AES-CBC encryption over a whole block-aligned record in
    one frame.

    ``data`` is ``bytes`` or a ``memoryview``; ``iv`` is the 128-bit IV
    as an int and ``schedule`` is the packed ``bytes`` of
    :func:`aes_encrypt_schedule`, unpacked here into round-key quads
    once per call (about 2 µs) so a keyed cipher holds 176 bytes of key
    material, not eleven tuples of boxed ints.  The :data:`_BLOCK128`
    format reads and writes a block at a time and the chain XOR runs on
    ints.  With ``iv=0`` and one block this is plain AES.  CBC
    encryption chains, so blocks run one at a time; decryption does
    not, and :func:`aes_cbc_decrypt` runs the whole record at once.
    """
    t0, t1, t2, t3, box = _aes_enc_tables()
    (r0, r1, r2, r3), *inner, (f0, f1, f2, f3) = _BLOCK128.iter_unpack(schedule)
    p0, p1, p2, p3 = iv >> 96, (iv >> 64) & MASK32, (iv >> 32) & MASK32, iv & MASK32
    pack = _BLOCK128.pack
    out: List[bytes] = []
    append = out.append
    for w0, w1, w2, w3 in _BLOCK128.iter_unpack(data):
        s0, s1, s2, s3 = w0 ^ p0 ^ r0, w1 ^ p1 ^ r1, w2 ^ p2 ^ r2, w3 ^ p3 ^ r3
        for k0, k1, k2, k3 in inner:
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ k0,
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ k1,
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ k2,
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ k3,
            )
        # Final round: SubBytes + ShiftRows only, no MixColumns.
        p0 = ((box[s0 >> 24] << 24) | (box[(s1 >> 16) & 255] << 16)
              | (box[(s2 >> 8) & 255] << 8) | box[s3 & 255]) ^ f0
        p1 = ((box[s1 >> 24] << 24) | (box[(s2 >> 16) & 255] << 16)
              | (box[(s3 >> 8) & 255] << 8) | box[s0 & 255]) ^ f1
        p2 = ((box[s2 >> 24] << 24) | (box[(s3 >> 16) & 255] << 16)
              | (box[(s0 >> 8) & 255] << 8) | box[s1 & 255]) ^ f2
        p3 = ((box[s3 >> 24] << 24) | (box[(s0 >> 16) & 255] << 16)
              | (box[(s1 >> 8) & 255] << 8) | box[s2 & 255]) ^ f3
        append(pack(p0, p1, p2, p3))
    return b"".join(out)


def aes_cbc_decrypt(data, iv: int, schedule: bytes) -> bytes:
    """AES-CBC decryption of a whole block-aligned record as one wide int.

    CBC decryption does not chain, so every block runs each round at
    once: the record (``bytes`` or a ``memoryview``) becomes one
    big-endian int, and a round is InvShiftRows as two steps of shifts
    and row masks on it, one ``to_bytes``, the body of
    :func:`_inv_mix_sub` (inlined: a call per round costs about 15% on
    a five-block record) and an XOR with the round key repeated across
    the record.  The last
    round is InvS only, and the chain is one XOR with ``IV ‖ C[:-16]``.
    ``schedule`` is :func:`aes_decrypt_schedule`'s.  The masks and
    repeated keys are built per call, as multiples of one int with a 1
    in each block's low byte, so nothing is kept per record length.
    With ``iv=0`` and one block this is plain AES.
    """
    size = len(data)
    if not size:
        return b""
    te, tb, td, t9, inv, _ = _aes_inv_tables()
    from_bytes = int.from_bytes
    ones = from_bytes(_LOW_BYTE * (size >> 4), "big")
    keep1, in1, wrap1, keep2, in2, wrap2, hi24, lo8 = (
        mask * ones for mask in (_KEEP1, _IN1, _WRAP1, _KEEP2, _IN2, _WRAP2, _HI24, _LO8))
    first, *inner, last = (from_bytes(schedule[i:i + 16], "big") * ones
                           for i in range(0, len(schedule), 16))
    state = from_bytes(data, "big")
    chain = (iv << (8 * size - 128)) | (state >> 128)
    state ^= first
    for key in inner:
        state = (state & keep1) | ((state >> 32) & in1) | ((state << 96) & wrap1)
        state = (state & keep2) | ((state >> 64) & in2) | ((state << 64) & wrap2)
        s = state.to_bytes(size, "big")
        x = from_bytes(s.translate(t9), "big")
        x = from_bytes(s.translate(td), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)
        x = from_bytes(s.translate(tb), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)
        state = from_bytes(s.translate(te), "big") ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8) ^ key
    state = (state & keep1) | ((state >> 32) & in1) | ((state << 96) & wrap1)
    state = (state & keep2) | ((state >> 64) & in2) | ((state << 64) & wrap2)
    s = state.to_bytes(size, "big").translate(inv)
    return (from_bytes(s, "big") ^ last ^ chain).to_bytes(size, "big")


def aes_encrypt_block(block: bytes, schedule: bytes) -> bytes:
    """T-table AES encryption of one 16-byte block (one-block
    :func:`aes_cbc` call with a zero IV)."""
    return aes_cbc(block, 0, schedule)


def aes_decrypt_block(block: bytes, schedule: bytes) -> bytes:
    """AES decryption of one 16-byte block (one-block
    :func:`aes_cbc_decrypt` call with a zero IV)."""
    return aes_cbc_decrypt(block, 0, schedule)


# ---------------------------------------------------------------------------
# DES: per-byte permutation tables + fused SP round tables
# ---------------------------------------------------------------------------


def byte_permutation_tables(table: Sequence[int], in_width: int) -> List[List[int]]:
    """Per-input-byte lookup tables equivalent to
    :func:`repro.crypto.bitops.permute_bits`.

    Each FIPS-style permutation routes every *output* bit from a fixed
    *input* bit, so the permutation of an ``in_width``-bit word is the
    OR of one precomputed lookup per input byte:
    ``out = t[0][byte0] | t[1][byte1] | ...`` — Section 4.2.1's
    "expensive on word-oriented CPUs" loop replaced by ``in_width/8``
    indexed loads.
    """
    if in_width % 8:
        raise ValueError(f"in_width {in_width} not a whole number of bytes")
    out_width = len(table)
    tables = [[0] * 256 for _ in range(in_width // 8)]
    for out_pos, in_pos in enumerate(table):
        in_index = in_pos - 1  # FIPS tables are 1-indexed from the MSB
        byte_index, offset = divmod(in_index, 8)
        bit_in_byte = 7 - offset
        out_bit = 1 << (out_width - 1 - out_pos)
        chunk = tables[byte_index]
        for value in range(256):
            if (value >> bit_in_byte) & 1:
                chunk[value] |= out_bit
    return tables


_DES_TABLES: Optional[dict] = None

MASK48 = (1 << 48) - 1

#: A packed key schedule: one 64-bit lane per round key, round 1 on top.
_KEY_LANES = struct.Struct(">16Q")
#: One DES block.  The loop kernel reads and writes records a block at
#: a time through this one format: a format per record length would
#: grow :mod:`struct`'s cache of compiled formats with every length.
_BLOCK64 = struct.Struct(">Q")


def _des_tables() -> dict:
    """The DES fast-path tables, built on first use.

    The block kernel keeps both Feistel halves *E-expanded* (48 bits
    each).  E only routes and duplicates bits, so it distributes over
    XOR: ``E(L ^ f) = E(L) ^ E(f)``.  Every table therefore emits
    E-form words, and the FIPS round key XORs straight into the state:

    * ``ip_e`` — IP followed by E on each half: eight byte lookups give
      ``E(L0) ‖ E(R0)`` as one 96-bit int;
    * ``spe`` — four 4096-entry tables, one per S-box *pair*, each entry
      ``E(P(S₂ⱼ ‖ S₂ⱼ₊₁))`` for the pair's 12 input bits.  An entry
      depends only on the pair's 8 output bits, so a table holds 256
      distinct values; each value is built once and the 4096 entries
      share those 256 int objects (16x fewer 48-bit ints to keep alive);
    * ``fp_e`` — FP read directly off the 96-bit ``E(R16) ‖ E(L16)``
      word, taking each bit from its middle copy (twelve byte lookups,
      six per half);
    * ``key`` — the key schedule.  PC1, the rotations and PC2 only route
      bits, so the packed schedule of a key (:data:`_KEY_LANES`) is the
      OR of the schedules of its nibbles: sixteen nibble-indexed tables
      of 16 entries, each filled by ``t[v] = t[v ^ low] | t[low]`` from
      the single-bit schedules that the PC1/PC2 byte-table schedule
      below computes.  A table entry is a 1024-bit int, so sixteen
      tables of 16 keep about 40 KiB alive where eight of 256 kept
      330 KiB, for eight more lookups per key.
    """
    global _DES_TABLES
    if _DES_TABLES is None:
        from . import des as _des
        from .bitops import permute_bits

        e0, e1, e2, e3 = byte_permutation_tables(_des._E, 32)
        # Per box: the output nibble of each 6-bit input, and E(P(·)) of
        # each nibble placed at the box's position.
        outputs = []
        expanded = []
        for box in range(8):
            outputs.append([_des._SBOXES[box][((six >> 4) & 0b10) | (six & 1)]
                            [(six >> 1) & 0xF] for six in range(64)])
            row = []
            for nibble in range(16):
                f = permute_bits(nibble << (28 - 4 * box), _des._P, 32)
                row.append(e0[f >> 24] | e1[(f >> 16) & 255]
                           | e2[(f >> 8) & 255] | e3[f & 255])
            expanded.append(row)
        spe = []
        for j in range(4):
            # E is linear, so a pair value is the XOR of its two boxes'.
            values = [hi ^ lo for hi in expanded[2 * j] for lo in expanded[2 * j + 1]]
            hi_out, lo_out = outputs[2 * j], outputs[2 * j + 1]
            spe.append([values[(hi_out[hi] << 4) | lo_out[lo]]
                        for hi in range(64) for lo in range(64)])
        # E copies bit b (1..32) of a half once into the middle four bits
        # of a 6-bit group; this is that copy's position in the 96-bit
        # E-form of a 64-bit word (high half's expansion on top).
        middle = [48 * half + 6 * ((b - 1) // 4) + (b - 1) % 4 + 2
                  for half in (0, 1) for b in range(1, 33)]
        pc1 = byte_permutation_tables(_des._PC1, 64)
        pc2 = byte_permutation_tables(_des._PC2, 56)

        def packed_schedule(key64: int) -> int:
            key56 = 0
            for i, table in enumerate(pc1):
                key56 |= table[(key64 >> (56 - 8 * i)) & 255]
            c = (key56 >> 28) & 0x0FFFFFFF
            d = key56 & 0x0FFFFFFF
            packed = 0
            for shift in _des._SHIFTS:
                c = ((c << shift) | (c >> (28 - shift))) & 0x0FFFFFFF
                d = ((d << shift) | (d >> (28 - shift))) & 0x0FFFFFFF
                cd = (c << 28) | d
                round_key = 0
                for i, table in enumerate(pc2):
                    round_key |= table[(cd >> (48 - 8 * i)) & 255]
                packed = (packed << 64) | round_key
            return packed

        key_tables = []
        for index in range(16):
            table = [0] * 16
            for value in range(1, 16):
                low = value & -value
                table[value] = (table[value ^ low] | table[low] if value != low
                                else packed_schedule(low << (60 - 4 * index)))
            key_tables.append(table)
        _DES_TABLES = {
            "ip_e": byte_permutation_tables(
                [_des._IP[32 * half + src - 1] for half in (0, 1) for src in _des._E],
                64,
            ),
            "fp_e": byte_permutation_tables([middle[src - 1] for src in _des._FP], 96),
            "key": key_tables,
            "spe": spe,
        }
    return _DES_TABLES


def des_schedule(round_keys: Sequence[int]) -> bytes:
    """Pack 16·n FIPS round keys into the :func:`des_cbc` schedule: one
    big-endian 64-bit lane per round key, in the order the rounds run
    (128 bytes per DES pass, 384 for 3DES).  Packed ``bytes`` rather
    than tuples of boxed 48-bit ints, so a keyed cipher holds only the
    key material its kernel reads.  Ciphers cache the result."""
    return struct.pack(f">{len(round_keys)}Q", *round_keys)


def des_cbc(data, iv: int, schedule: bytes, decrypt: bool = False) -> bytes:
    """Table-driven DES/3DES-CBC over a whole block-aligned record, a
    block at a time.

    ``data`` is ``bytes`` or a ``memoryview``; ``iv`` is the 64-bit IV
    as an int and ``schedule`` is the packed ``bytes`` of
    :func:`des_schedule`, unpacked here once per call into four 4-round
    key quads per pass.  Blocks are read and written through the one
    :data:`_BLOCK64` format; each runs IP → 16·n E-form rounds → FP in
    this one frame, with the chain XOR on ints.  DES is its own inverse
    under the reversed schedule, so ``decrypt`` only changes where the
    chain XOR goes.  With ``iv=0`` and one block this is plain (3)DES.

    Encryption chains, so every record encrypts here.  Decryption does
    not: :class:`~repro.crypto.des.DESKernel` sends records of
    :data:`DES_WIDE_MIN_BLOCKS` blocks or more to
    :func:`des_cbc_decrypt`, and shorter ones here, where the per-block
    cost (about 17–21 µs for 3DES) stays under the wide kernel's fixed
    cost.

    Each pass of 16 rounds is a full DES, and the half-swap is undone
    between passes.  The 48 keys of an EDE schedule are therefore 3DES
    with one IP and one FP per block, because the inner FP∘IP pairs of
    three chained DES passes cancel.
    """
    t = _des_tables()
    ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = t["ip_e"]
    fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7, fp8, fp9, fp10, fp11 = t["fp_e"]
    s0, s1, s2, s3 = t["spe"]
    quads = struct.iter_unpack(">4Q", schedule)
    passes = tuple(zip(quads, quads, quads, quads))
    out: List[int] = []
    append = out.append
    previous = iv
    for (block,) in _BLOCK64.iter_unpack(data):
        value = block if decrypt else block ^ previous
        state = (
            ip0[value >> 56] | ip1[(value >> 48) & 255]
            | ip2[(value >> 40) & 255] | ip3[(value >> 32) & 255]
            | ip4[(value >> 24) & 255] | ip5[(value >> 16) & 255]
            | ip6[(value >> 8) & 255] | ip7[value & 255]
        )
        left = state >> 48
        right = state & MASK48
        for keys in passes:
            # Four rounds per step, so the halves trade roles without a swap.
            for k0, k1, k2, k3 in keys:
                x = right ^ k0
                left ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
                x = left ^ k1
                right ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
                x = right ^ k2
                left ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
                x = left ^ k3
                right ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
            # Undo the last swap (the FIPS 46-3 pre-output is R16 ‖ L16);
            # the next pass starts from it, since its IP cancels our FP.
            left, right = right, left
        # FP over the 96-bit E(R16) ‖ E(L16), read six bytes per half.
        result = (
            fp0[left >> 40] | fp1[(left >> 32) & 255] | fp2[(left >> 24) & 255]
            | fp3[(left >> 16) & 255] | fp4[(left >> 8) & 255] | fp5[left & 255]
            | fp6[right >> 40] | fp7[(right >> 32) & 255] | fp8[(right >> 24) & 255]
            | fp9[(right >> 16) & 255] | fp10[(right >> 8) & 255] | fp11[right & 255]
        )
        if decrypt:
            append(result ^ previous)
            previous = block
        else:
            append(result)
            previous = result
    return b"".join(map(_BLOCK64.pack, out))


#: Per 32-bit lane (one block half, bit 1 of the FIPS numbering on top):
#: the E-windows of S-boxes 1, 3, 5 and 7 (group A) are
#: ``((R >> 3) & _E_A) | ((R << 29) & _E_A_WRAP)`` and those of S-boxes
#: 2, 4, 6 and 8 (group B) ``((R << 1) & _E_B) | ((R >> 31) & 1)``, one
#: 6-bit window in the low bits of each byte.  The S-box tag of each
#: byte, 0 to 3 from the top, goes in its bits 6–7 (``_S_TAGS``).
_E_A, _E_A_WRAP, _E_B = 0x1F3F3F3F, 0x20000000, 0x3F3F3F3E
_S_TAGS = 0x004080C0
#: IP as five delta swaps between the 32-bit halves, lane by lane:
#: ``(shift, mask, whether R is the shifted half)``.  FP runs them in
#: reverse order.
_IP_SWAPS = ((4, 0x0F0F0F0F, False), (16, 0x0000FFFF, False),
             (2, 0x33333333, True), (8, 0x00FF00FF, True), (1, 0x55555555, False))
#: One 64-bit lane of the packed schedule holding 1, and the S-box tags
#: of both groups' words in one such lane.
_KEY_LANE_ONE, _KEY_TAGS = bytes(7) + b"\x01", (_S_TAGS << 32) | _S_TAGS
#: ``(from, to)``: the low bit of S-box j's six key bits in a round key,
#: and of its byte in that lane (group A's word on top, group B's under).
_KEY_MOVES = tuple((42 - 6 * box, 56 - 32 * (box & 1) - 8 * (box >> 1))
                   for box in range(8))

#: The shortest record, in blocks, that :class:`~repro.crypto.des.DESKernel`
#: decrypts with :func:`des_cbc_decrypt`; shorter ones take the loop
#: kernel :func:`des_cbc`.  Measured for 3DES with best-of timings on a
#: shared 2-vCPU VM: the wide kernel costs about 115 µs plus 4–5 µs per
#: block, the loop kernel about 17–21 µs per block, and the two met at
#: 8–10 blocks as the host's load varied (at 10 the wide kernel was
#: 1.07–1.2× as fast).  Single DES met at 8–9.
DES_WIDE_MIN_BLOCKS = 10

_DES_WIDE_TABLES: Optional[Tuple[bytes, ...]] = None


def _des_wide_tables() -> Tuple[bytes, ...]:
    """The eight ``bytes.translate`` tables of :func:`des_cbc_decrypt`,
    built on first use (2 KiB): ``A0..A3`` for S-box group A, then
    ``B0..B3`` for group B.

    Table r of a group maps a tagged byte ``(m << 6) | x`` to byte
    ``(m - r) mod 4`` (0 on top) of ``P(S(x))``, where S is the group's
    m-th S-box with its output nibble at its own place in the 32-bit
    word: S with P fused, so one lookup gives a byte of f.
    """
    global _DES_WIDE_TABLES
    if _DES_WIDE_TABLES is None:
        from . import des as _des
        from .bitops import permute_bits

        tables = []
        for group in (0, 1):
            boxes = range(group, 8, 2)
            # P(S(x)) for each box and 6-bit input.
            fs = [[permute_bits(_des.sbox_lookup(box, x) << (28 - 4 * box), _des._P, 32)
                   for x in range(64)] for box in boxes]
            for r in range(4):
                tables.append(bytes(
                    (fs[m][x] >> (24 - 8 * ((m - r) % 4))) & 255
                    for m in range(4) for x in range(64)))
        _DES_WIDE_TABLES = tuple(tables)
    return _DES_WIDE_TABLES


def _delta_swaps(left: int, right: int, swaps) -> Tuple[int, int]:
    """Run ``(shift, mask, r_shifts)`` delta swaps over the two halves."""
    for shift, mask, r_shifts in swaps:
        if r_shifts:
            t = ((right >> shift) ^ left) & mask
            left ^= t
            right ^= t << shift
        else:
            t = ((left >> shift) ^ right) & mask
            right ^= t
            left ^= t << shift
    return left, right


def des_cbc_decrypt(data, iv: int, schedule: bytes) -> bytes:
    """DES/3DES-CBC decryption of a whole block-aligned record of at
    least one block, every block through each round at once.

    CBC decryption does not chain, so the two Feistel halves are wide
    ints with one 32-bit lane per block: strided byte slices split the
    record (``bytes`` or a ``memoryview``) into them, and IP and FP are
    five delta swaps each with masks repeated per lane.  A round builds
    the two tagged E-window words of :data:`_E_A`/:data:`_E_B` from R,
    XORs in the round key and the tags as one repeated word, and runs
    eight ``bytes.translate`` calls through :func:`_des_wide_tables`;
    three one-byte rotations inside each lane (Horner-style, as in
    :func:`aes_cbc_decrypt`) add up f(R) for every block.  The chain is
    one XOR with ``IV ‖ C[:-8]``.

    ``schedule`` is the decryption :func:`des_schedule` (16·n round
    keys, one pass per 16, as in :func:`des_cbc`).  Its per-round key
    words are derived here, lane by lane on the whole schedule, and
    repeated across the record, so a cipher keeps only its packed
    bytes and nothing is kept per record length.

    The round body is written out twice, once per half: a call per
    half-round cost about 5% at 10–18 blocks.

    Best-of timings against :func:`des_cbc` (``decrypt=True``) for 3DES,
    one process, shared 2-vCPU VM, Python 3.11: 1 block 120 against
    20 µs, 7 blocks 145 against 123 µs, 10 blocks 157 against 175 µs,
    18 blocks 192 against 323 µs, 44 blocks 293 against 785 µs, 130
    blocks 695 against 2,385 µs.  A round costs about 2 µs at any record
    length, so 48 rounds and the per-call set-up come to about 115 µs
    before the first block, against about 17–21 µs per block for the
    loop kernel.  No single kernel serves both lengths, and records
    shorter than :data:`DES_WIDE_MIN_BLOCKS` stay on :func:`des_cbc`.
    """
    size = len(data)
    a0, a1, a2, a3, b0, b1, b2, b3 = _des_wide_tables()
    from_bytes = int.from_bytes
    half = size >> 1
    ones = from_bytes(b"\0\0\0\x01" * (size >> 3), "big")
    e_a, e_a_wrap, e_b, hi24, lo8 = (
        mask * ones for mask in (_E_A, _E_A_WRAP, _E_B, _HI24 & MASK32, _LO8 & MASK32))
    swaps = [(shift, mask * ones, r_shifts) for shift, mask, r_shifts in _IP_SWAPS]
    # Each round key's group-A word on top of its group-B word, one
    # 64-bit lane per round: the six key bits of each S-box moved to the
    # low bits of its byte, under the tags.
    rounds = len(schedule) >> 3
    s = from_bytes(schedule, "big")
    lane = from_bytes(_KEY_LANE_ONE * rounds, "big")
    six = 0x3F * lane
    words = _KEY_TAGS * lane
    for src, dst in _KEY_MOVES:
        words |= (s << dst >> src) & (six << dst)
    keys = (word * ones for (word,) in struct.iter_unpack(
        ">I", words.to_bytes(8 * rounds, "big")))
    # Split the record into its halves: bytes 0-3 and 4-7 of each block.
    data = bytes(data)
    lb, rb = bytearray(half), bytearray(half)
    for k in range(4):
        lb[k::4] = data[k::8]
        rb[k::4] = data[4 + k::8]
    left, right = from_bytes(lb, "big"), from_bytes(rb, "big")
    chain_l = ((iv >> 32) << (8 * half - 32)) | (left >> 32)
    chain_r = ((iv & MASK32) << (8 * half - 32)) | (right >> 32)
    left, right = _delta_swaps(left, right, swaps)
    for step in zip(*[zip(keys, keys, keys, keys)] * 8):
        # One pass of 16 rounds, two per step, so the halves trade
        # roles without a swap.
        for ka, kb, kc, kd in step:
            sa = ((((right >> 3) & e_a) | ((right << 29) & e_a_wrap)) ^ ka).to_bytes(half, "big")
            sb = ((((right << 1) & e_b) | ((right >> 31) & ones)) ^ kb).to_bytes(half, "big")
            x = from_bytes(sa.translate(a3), "big") ^ from_bytes(sb.translate(b3), "big")
            x = (from_bytes(sa.translate(a2), "big") ^ from_bytes(sb.translate(b2), "big")
                 ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
            x = (from_bytes(sa.translate(a1), "big") ^ from_bytes(sb.translate(b1), "big")
                 ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
            left ^= (from_bytes(sa.translate(a0), "big") ^ from_bytes(sb.translate(b0), "big")
                     ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
            sa = ((((left >> 3) & e_a) | ((left << 29) & e_a_wrap)) ^ kc).to_bytes(half, "big")
            sb = ((((left << 1) & e_b) | ((left >> 31) & ones)) ^ kd).to_bytes(half, "big")
            x = from_bytes(sa.translate(a3), "big") ^ from_bytes(sb.translate(b3), "big")
            x = (from_bytes(sa.translate(a2), "big") ^ from_bytes(sb.translate(b2), "big")
                 ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
            x = (from_bytes(sa.translate(a1), "big") ^ from_bytes(sb.translate(b1), "big")
                 ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
            right ^= (from_bytes(sa.translate(a0), "big") ^ from_bytes(sb.translate(b0), "big")
                      ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8))
        # Undo the last swap, as des_cbc does between passes.
        left, right = right, left
    left, right = _delta_swaps(left, right, swaps[::-1])
    lb = (left ^ chain_l).to_bytes(half, "big")
    rb = (right ^ chain_r).to_bytes(half, "big")
    out = bytearray(size)
    for k in range(4):
        out[k::8] = lb[k::4]
        out[4 + k::8] = rb[k::4]
    return bytes(out)


def des_crypt_block(block64: int, round_keys: Sequence[int]) -> int:
    """DES on one 64-bit int under 16·n FIPS round keys (one pass per
    16; the 48 keys of an EDE schedule give 3DES).

    The int-level entry point: packs ``round_keys`` and makes one
    one-block :func:`des_cbc` call.  Ciphers cache their
    :func:`des_schedule` and call :func:`des_cbc` directly.
    """
    return int.from_bytes(
        des_cbc(block64.to_bytes(8, "big"), 0, des_schedule(round_keys)), "big")


def des_expand_key(key: bytes) -> List[int]:
    """Table-driven FIPS 46-3 key schedule: sixteen nibble lookups OR
    to the packed schedule, and one ``struct.unpack`` splits its lanes.

    Bit-for-bit equivalent to :func:`repro.crypto.des.expand_key`;
    callers validate the key length.
    """
    (n0, n1, n2, n3, n4, n5, n6, n7,
     n8, n9, n10, n11, n12, n13, n14, n15) = _des_tables()["key"]
    b0, b1, b2, b3, b4, b5, b6, b7 = key
    packed = (n0[b0 >> 4] | n1[b0 & 15] | n2[b1 >> 4] | n3[b1 & 15]
              | n4[b2 >> 4] | n5[b2 & 15] | n6[b3 >> 4] | n7[b3 & 15]
              | n8[b4 >> 4] | n9[b4 & 15] | n10[b5 >> 4] | n11[b5 & 15]
              | n12[b6 >> 4] | n13[b6 & 15] | n14[b7 >> 4] | n15[b7 & 15])
    return list(_KEY_LANES.unpack(packed.to_bytes(128, "big")))


# ---------------------------------------------------------------------------
# Hashes: delegate whole-message hashing to the platform primitive
# ---------------------------------------------------------------------------


def _platform_hash(name: str):
    """hashlib's zero-argument constructor for ``name``, or ``None``.

    Resolved once at import, so a hash construction costs one call.
    FIPS-restricted builds refuse MD5 unless flagged as non-security
    use; a build that rejects even that gets ``None`` and the
    reference loop.
    """
    try:
        import hashlib

        constructor = getattr(hashlib, name)
        if name == "md5":
            constructor = functools.partial(constructor, usedforsecurity=False)
        constructor()
        return constructor
    except (ImportError, ValueError):  # pragma: no cover - exotic builds
        return None


#: hashlib's SHA-1/MD5 constructors (``hashlib_sha1()`` is a fresh
#: optimised hash object), or ``None`` when the platform lacks one.
hashlib_sha1 = _platform_hash("sha1")
hashlib_md5 = _platform_hash("md5")
