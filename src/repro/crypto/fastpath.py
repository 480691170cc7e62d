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

* **AES T-tables** — four 256-entry tables fusing SubBytes, ShiftRows
  and MixColumns into one lookup+XOR per state byte (and the inverse
  tables plus the equivalent-inverse-cipher key transform for
  decryption).  Every table is derived programmatically from
  :data:`repro.crypto.aes.SBOX` and GF(2^8) arithmetic, so nothing is
  transcribed.
* **DES table fusion** — every FIPS 46-3 bit permutation (IP, FP,
  PC1, PC2) becomes a handful of per-byte lookups via
  :func:`byte_permutation_tables`.  The block kernel keeps both
  Feistel halves E-expanded, so a round is the round-key XOR plus four
  lookups into S-box-pair tables that already emit E(P(S)), and one
  call runs all three passes of 3DES (see :func:`_des_tables`).
* **hash delegation** — SHA-1/MD5 whole-message hashing is handed to
  the platform's optimised primitive (:mod:`hashlib`, the software
  stand-in for the paper's crypto accelerator) when available; the
  from-scratch compression functions remain the instrumented reference
  and the differential tests pin the two bit-for-bit.

The switch
----------

:func:`enabled` is consulted by the cipher/hash classes on every
block.  The fast path is used only when **no**
:class:`~repro.crypto.trace.TraceRecorder` is attached — a probed
cipher always takes the reference loops so the DPA/timing simulators
in :mod:`repro.attacks` keep observing true intermediate values.  Set
``REPRO_FASTPATH=0`` in the environment (or call :func:`disable`) to
force the reference path globally, e.g. when validating the cost
models in :mod:`repro.hardware.cycles` against honest software loops.
"""

from __future__ import annotations

import contextlib
import os
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
# AES: T-tables fusing SubBytes + ShiftRows + MixColumns
# ---------------------------------------------------------------------------

_AES_ENC_TABLES: Optional[Tuple[List[int], ...]] = None
_AES_DEC_TABLES: Optional[Tuple[List[int], ...]] = None


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


def _aes_dec_tables() -> Tuple[List[int], ...]:
    """TD0..TD3 for the equivalent inverse cipher (InvSubBytes fused
    with InvMixColumns); TD0[x] packs (14u, 9u, 13u, 11u) for
    u = InvS[x]."""
    global _AES_DEC_TABLES
    if _AES_DEC_TABLES is None:
        from .aes import INV_SBOX, _gf_mul

        td0 = []
        for x in range(256):
            u = INV_SBOX[x]
            td0.append(
                (_gf_mul(u, 14) << 24)
                | (_gf_mul(u, 9) << 16)
                | (_gf_mul(u, 13) << 8)
                | _gf_mul(u, 11)
            )
        td1 = [_rotr8(t) for t in td0]
        td2 = [_rotr8(t) for t in td1]
        td3 = [_rotr8(t) for t in td2]
        _AES_DEC_TABLES = (td0, td1, td2, td3, INV_SBOX)
    return _AES_DEC_TABLES


def aes_encrypt_block(block: bytes, round_words: Sequence[int], rounds: int) -> bytes:
    """T-table AES encryption of one 16-byte block.

    ``round_words`` is the flat list of 4·(rounds+1) big-endian round
    key words exactly as produced by
    :func:`repro.crypto.aes.key_expansion`.
    """
    t0, t1, t2, t3, sbox = _aes_enc_tables()
    rk = round_words
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ rk[i]
        u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ rk[i + 1]
        u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ rk[i + 2]
        u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ rk[i + 3]
        s0, s1, s2, s3 = u0, u1, u2, u3
        i += 4
    # Final round: SubBytes + ShiftRows only (no MixColumns).
    o0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 255] << 16)
          | (sbox[(s2 >> 8) & 255] << 8) | sbox[s3 & 255]) ^ rk[i]
    o1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 255] << 16)
          | (sbox[(s3 >> 8) & 255] << 8) | sbox[s0 & 255]) ^ rk[i + 1]
    o2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 255] << 16)
          | (sbox[(s0 >> 8) & 255] << 8) | sbox[s1 & 255]) ^ rk[i + 2]
    o3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 255] << 16)
          | (sbox[(s1 >> 8) & 255] << 8) | sbox[s2 & 255]) ^ rk[i + 3]
    return ((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big")


def aes_decrypt_schedule(round_keys: Sequence[Sequence[int]]) -> List[int]:
    """Equivalent-inverse-cipher key schedule.

    Reverses the round key order and applies InvMixColumns to every
    inner round key, so decryption can run the same table-lookup shape
    as encryption.  Computed once per :class:`~repro.crypto.aes.AES`
    instance (key-schedule caching).
    """
    from .aes import SBOX

    td0, td1, td2, td3, _ = _aes_dec_tables()
    rounds = len(round_keys) - 1
    words: List[int] = list(round_keys[rounds])
    for r in range(rounds - 1, 0, -1):
        for w in round_keys[r]:
            # TDi[S[b]] is InvMixColumns applied to byte b in position i.
            words.append(
                td0[SBOX[w >> 24]]
                ^ td1[SBOX[(w >> 16) & 255]]
                ^ td2[SBOX[(w >> 8) & 255]]
                ^ td3[SBOX[w & 255]]
            )
    words.extend(round_keys[0])
    return words


def aes_decrypt_block(block: bytes, inv_words: Sequence[int], rounds: int) -> bytes:
    """T-table AES decryption (equivalent inverse cipher)."""
    td0, td1, td2, td3, inv_sbox = _aes_dec_tables()
    rk = inv_words
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = td0[s0 >> 24] ^ td1[(s3 >> 16) & 255] ^ td2[(s2 >> 8) & 255] ^ td3[s1 & 255] ^ rk[i]
        u1 = td0[s1 >> 24] ^ td1[(s0 >> 16) & 255] ^ td2[(s3 >> 8) & 255] ^ td3[s2 & 255] ^ rk[i + 1]
        u2 = td0[s2 >> 24] ^ td1[(s1 >> 16) & 255] ^ td2[(s0 >> 8) & 255] ^ td3[s3 & 255] ^ rk[i + 2]
        u3 = td0[s3 >> 24] ^ td1[(s2 >> 16) & 255] ^ td2[(s1 >> 8) & 255] ^ td3[s0 & 255] ^ rk[i + 3]
        s0, s1, s2, s3 = u0, u1, u2, u3
        i += 4
    o0 = ((inv_sbox[s0 >> 24] << 24) | (inv_sbox[(s3 >> 16) & 255] << 16)
          | (inv_sbox[(s2 >> 8) & 255] << 8) | inv_sbox[s1 & 255]) ^ rk[i]
    o1 = ((inv_sbox[s1 >> 24] << 24) | (inv_sbox[(s0 >> 16) & 255] << 16)
          | (inv_sbox[(s3 >> 8) & 255] << 8) | inv_sbox[s2 & 255]) ^ rk[i + 1]
    o2 = ((inv_sbox[s2 >> 24] << 24) | (inv_sbox[(s1 >> 16) & 255] << 16)
          | (inv_sbox[(s0 >> 8) & 255] << 8) | inv_sbox[s3 & 255]) ^ rk[i + 2]
    o3 = ((inv_sbox[s3 >> 24] << 24) | (inv_sbox[(s2 >> 16) & 255] << 16)
          | (inv_sbox[(s1 >> 8) & 255] << 8) | inv_sbox[s0 & 255]) ^ rk[i + 3]
    return ((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big")


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


def _des_tables() -> dict:
    """The DES fast-path tables, built on first use.

    The block kernel keeps both Feistel halves *E-expanded* (48 bits
    each).  E only routes and duplicates bits, so it distributes over
    XOR: ``E(L ^ f) = E(L) ^ E(f)``.  Every table therefore emits
    E-form words, and the FIPS round key XORs straight into the state:

    * ``ip_e`` — IP followed by E on each half: eight byte lookups give
      ``E(L0) ‖ E(R0)`` as one 96-bit int;
    * ``spe`` — four 4096-entry tables, one per S-box *pair*, each entry
      ``E(P(S₂ⱼ ‖ S₂ⱼ₊₁))`` for the pair's 12 input bits;
    * ``fp_e`` — FP read directly off the 96-bit ``E(R16) ‖ E(L16)``
      word, taking each bit from its middle copy (twelve byte lookups).
    """
    global _DES_TABLES
    if _DES_TABLES is None:
        from . import des as _des
        from .bitops import permute_bits

        e0, e1, e2, e3 = byte_permutation_tables(_des._E, 32)
        spe = []
        for box in range(8):
            entries = []
            for six in range(64):
                row = ((six >> 4) & 0b10) | (six & 1)
                col = (six >> 1) & 0xF
                # S-box output placement fused with P, then expanded.
                f = permute_bits(
                    _des._SBOXES[box][row][col] << (28 - 4 * box), _des._P, 32
                )
                entries.append(e0[f >> 24] | e1[(f >> 16) & 255]
                               | e2[(f >> 8) & 255] | e3[f & 255])
            spe.append(entries)
        # E copies bit b (1..32) of a half once into the middle four bits
        # of a 6-bit group; this is that copy's position in the 96-bit
        # E-form of a 64-bit word (high half's expansion on top).
        middle = [48 * half + 6 * ((b - 1) // 4) + (b - 1) % 4 + 2
                  for half in (0, 1) for b in range(1, 33)]
        _DES_TABLES = {
            "ip_e": byte_permutation_tables(
                [_des._IP[32 * half + src - 1] for half in (0, 1) for src in _des._E],
                64,
            ),
            "fp_e": byte_permutation_tables([middle[src - 1] for src in _des._FP], 96),
            "pc1": byte_permutation_tables(_des._PC1, 64),
            "pc2": byte_permutation_tables(_des._PC2, 56),
            # E is linear, so one pair entry is the XOR of two box entries.
            "spe": [[hi ^ lo for hi in spe[2 * j] for lo in spe[2 * j + 1]]
                    for j in range(4)],
        }
    return _DES_TABLES


def des_crypt_block(block64: int, round_keys: Sequence[int]) -> int:
    """Table-driven DES on ints: IP → 16·n E-form rounds → FP.

    ``round_keys`` holds one or more 16-key FIPS schedules; each block
    of 16 is a full DES pass, and the half-swap is undone between
    passes.  A single call with the 48 keys of an EDE schedule is
    therefore 3DES with one IP and one FP, because the inner FP∘IP
    pairs of three chained DES passes cancel.
    """
    t = _des_tables()
    ip = t["ip_e"]
    state = (
        ip[0][block64 >> 56] | ip[1][(block64 >> 48) & 255]
        | ip[2][(block64 >> 40) & 255] | ip[3][(block64 >> 32) & 255]
        | ip[4][(block64 >> 24) & 255] | ip[5][(block64 >> 16) & 255]
        | ip[6][(block64 >> 8) & 255] | ip[7][block64 & 255]
    )
    left = state >> 48
    right = state & MASK48
    s0, s1, s2, s3 = t["spe"]
    ks = round_keys
    for start in range(0, len(ks), 16):
        # Two rounds per step, so the halves trade roles without a swap.
        for i in range(start, start + 16, 2):
            x = right ^ ks[i]
            left ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
            x = left ^ ks[i + 1]
            right ^= s0[x >> 36] ^ s1[(x >> 24) & 4095] ^ s2[(x >> 12) & 4095] ^ s3[x & 4095]
        # Undo the last swap (the FIPS 46-3 pre-output is R16 ‖ L16);
        # the next pass starts from it, since its IP cancels our FP.
        left, right = right, left
    pre = (left << 48) | right
    fp = t["fp_e"]
    return (
        fp[0][pre >> 88] | fp[1][(pre >> 80) & 255] | fp[2][(pre >> 72) & 255]
        | fp[3][(pre >> 64) & 255] | fp[4][(pre >> 56) & 255]
        | fp[5][(pre >> 48) & 255] | fp[6][(pre >> 40) & 255]
        | fp[7][(pre >> 32) & 255] | fp[8][(pre >> 24) & 255]
        | fp[9][(pre >> 16) & 255] | fp[10][(pre >> 8) & 255] | fp[11][pre & 255]
    )


def des_expand_key(key: bytes) -> List[int]:
    """Table-driven FIPS 46-3 key schedule (PC1/PC2 as byte lookups).

    Bit-for-bit equivalent to :func:`repro.crypto.des.expand_key`;
    callers validate the key length.
    """
    from . import des as _des

    t = _des_tables()
    pc1 = t["pc1"]
    key64 = int.from_bytes(key, "big")
    key56 = (
        pc1[0][(key64 >> 56) & 255] | pc1[1][(key64 >> 48) & 255]
        | pc1[2][(key64 >> 40) & 255] | pc1[3][(key64 >> 32) & 255]
        | pc1[4][(key64 >> 24) & 255] | pc1[5][(key64 >> 16) & 255]
        | pc1[6][(key64 >> 8) & 255] | pc1[7][key64 & 255]
    )
    c = (key56 >> 28) & 0x0FFFFFFF
    d = key56 & 0x0FFFFFFF
    pc2 = t["pc2"]
    round_keys = []
    for shift in _des._SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0x0FFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0x0FFFFFFF
        cd = (c << 28) | d
        round_keys.append(
            pc2[0][(cd >> 48) & 255] | pc2[1][(cd >> 40) & 255]
            | pc2[2][(cd >> 32) & 255] | pc2[3][(cd >> 24) & 255]
            | pc2[4][(cd >> 16) & 255] | pc2[5][(cd >> 8) & 255]
            | pc2[6][cd & 255]
        )
    return round_keys


# ---------------------------------------------------------------------------
# Hashes: delegate whole-message hashing to the platform primitive
# ---------------------------------------------------------------------------


def hashlib_sha1():
    """A fresh optimised SHA-1 object, or ``None`` if unavailable."""
    try:
        import hashlib

        return hashlib.sha1()
    except (ImportError, ValueError):  # pragma: no cover - exotic builds
        return None


def hashlib_md5():
    """A fresh optimised MD5 object, or ``None`` if unavailable.

    FIPS-restricted builds refuse MD5 unless flagged as
    non-security use; fall back to the reference loop if even that is
    rejected.
    """
    try:
        import hashlib

        try:
            return hashlib.md5(usedforsecurity=False)
        except TypeError:
            return hashlib.md5()
    except (ImportError, ValueError):  # pragma: no cover - exotic builds
        return None
