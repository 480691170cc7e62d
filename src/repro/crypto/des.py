"""DES (FIPS 46-3) implemented from scratch.

DES and its triple variant are the symmetric workhorses the paper's
quantitative analysis leans on: the 651.3-MIPS figure of Section 3.2 is
for a 3DES+SHA protocol, and the bit-permutation inner loops here are
the very operations Section 4.2.1 says word-oriented CPUs execute
poorly (motivating SmartMIPS/SecurCore-style ISA extensions).

The implementation follows the FIPS 46-3 tables verbatim, keeps the
classic IP → 16 Feistel rounds → FP structure, and exposes probe points
(round outputs, S-box outputs) for the power-analysis attacks of
:mod:`repro.attacks.power`.

Validated against the canonical test vector (key ``133457799BBCDFF1``,
plaintext ``0123456789ABCDEF`` → ciphertext ``85E813540F0AB405``) and
NIST-style round-trip properties in the test suite.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

from . import fastpath
from .bitops import bytes_to_int, int_to_bytes, permute_bits
from .errors import InvalidBlockSize, InvalidKeyLength
from .trace import TraceRecorder

BLOCK_SIZE = 8
KEY_SIZE = 8

# --- FIPS 46-3 tables (1-indexed bit positions, MSB first) -----------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17,
    1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9,
    19, 13, 30, 6, 22, 11, 4, 25,
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

_SBOXES = (
    (
        (14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7),
        (0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8),
        (4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0),
        (15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13),
    ),
    (
        (15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10),
        (3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5),
        (0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15),
        (13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9),
    ),
    (
        (10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8),
        (13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1),
        (13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7),
        (1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12),
    ),
    (
        (7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15),
        (13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9),
        (10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4),
        (3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14),
    ),
    (
        (2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9),
        (14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6),
        (4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14),
        (11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3),
    ),
    (
        (12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11),
        (10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8),
        (9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6),
        (4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13),
    ),
    (
        (4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1),
        (13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6),
        (1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2),
        (6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12),
    ),
    (
        (13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7),
        (1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2),
        (7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8),
        (2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11),
    ),
)


def expand_key(key: bytes) -> List[int]:
    """Derive the sixteen 48-bit round keys from an 8-byte DES key.

    Parity bits (every 8th bit) are ignored, per FIPS 46-3.
    """
    if len(key) != KEY_SIZE:
        raise InvalidKeyLength("DES", len(key), "8")
    if fastpath.enabled():
        # Bit-identical table-driven schedule (PC1/PC2 as byte lookups).
        return fastpath.des_expand_key(key)
    key56 = permute_bits(bytes_to_int(key), _PC1, 64)
    c = (key56 >> 28) & 0x0FFFFFFF
    d = key56 & 0x0FFFFFFF
    round_keys = []
    for shift in _SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0x0FFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0x0FFFFFFF
        round_keys.append(permute_bits((c << 28) | d, _PC2, 56))
    return round_keys


def feistel(right: int, round_key: int, recorder: Optional[TraceRecorder] = None,
            round_index: int = 0) -> int:
    """The DES round function f(R, K)."""
    expanded = permute_bits(right, _E, 32) ^ round_key
    out = 0
    for box in range(8):
        chunk = (expanded >> (42 - 6 * box)) & 0x3F
        row = ((chunk >> 4) & 0b10) | (chunk & 1)
        col = (chunk >> 1) & 0xF
        sbox_out = _SBOXES[box][row][col]
        if recorder is not None:
            recorder.record("des.sbox_out", round_index * 8 + box, sbox_out)
        out = (out << 4) | sbox_out
    return permute_bits(out, _P, 32)


def _crypt_block(block64: int, round_keys: List[int],
                 recorder: Optional[TraceRecorder]) -> int:
    state = permute_bits(block64, _IP, 64)
    left = (state >> 32) & 0xFFFFFFFF
    right = state & 0xFFFFFFFF
    for round_index, round_key in enumerate(round_keys):
        left, right = right, left ^ feistel(right, round_key, recorder, round_index)
        if recorder is not None:
            recorder.record("des.round_out", round_index, right)
    # Final swap is undone (pre-output is R16 L16).
    return permute_bits((right << 32) | left, _FP, 64)


class DESKernel:
    """The fast-path CBC record kernels shared by :class:`DES` and
    :class:`~repro.crypto.tdes.TripleDES`: the block-at-a-time
    :func:`~repro.crypto.fastpath.des_cbc` and, for long records'
    decryption, the record-wide
    :func:`~repro.crypto.fastpath.des_cbc_decrypt`.

    Each direction's packed :func:`~repro.crypto.fastpath.des_cbc`
    schedule is built on first use from the round keys the subclass's
    ``_kernel_keys`` expands, and cached (a record layer's cipher only
    ever runs one direction); the round-key lists themselves are not
    kept.  The kernel ignores ``recorder``;
    :class:`~repro.crypto.modes.CBC` calls it only when
    :func:`~repro.crypto.fastpath.dispatch_path` says ``"fast"``.
    """

    _fast_enc: Optional[bytes] = None
    _fast_dec: Optional[bytes] = None

    def _kernel_keys(self, decrypt: bool) -> List[int]:
        raise NotImplementedError

    def cbc_encrypt(self, data, iv: int) -> bytes:
        """CBC encryption of a block-aligned record."""
        return fastpath.des_cbc(data, iv, self._schedule(False))

    def cbc_decrypt(self, data, iv: int) -> bytes:
        """CBC decryption of a block-aligned record.

        Records of :data:`~repro.crypto.fastpath.DES_WIDE_MIN_BLOCKS`
        blocks or more run every block through each round at once
        (:func:`~repro.crypto.fastpath.des_cbc_decrypt`); shorter ones
        take the block-at-a-time loop kernel that encryption uses, which
        is faster below that length because a wide round has a fixed
        cost.
        """
        if len(data) >= fastpath.DES_WIDE_MIN_BLOCKS * BLOCK_SIZE:
            return fastpath.des_cbc_decrypt(data, iv, self._schedule(True))
        return fastpath.des_cbc(data, iv, self._schedule(True), decrypt=True)

    def _schedule(self, decrypt: bool) -> bytes:
        if decrypt:
            if self._fast_dec is None:
                self._fast_dec = fastpath.des_schedule(self._kernel_keys(True))
            return self._fast_dec
        if self._fast_enc is None:
            self._fast_enc = fastpath.des_schedule(self._kernel_keys(False))
        return self._fast_enc


class DES(DESKernel):
    """Single DES with an 8-byte key, ECB at the block level.

    Chaining modes live in :mod:`repro.crypto.modes`; this class only
    transforms single 8-byte blocks so the mode layer stays generic.

    Parameters
    ----------
    key:
        8-byte key (parity bits ignored).
    recorder:
        Optional :class:`~repro.crypto.trace.TraceRecorder` receiving
        side-channel probe samples.

    An instance keeps its key bytes; the reference loops' round keys
    (both orders) are expanded on their first use and cached, at
    construction when a recorder is given or the fast path is off.
    """

    name = "DES"
    block_size = BLOCK_SIZE
    key_size = KEY_SIZE

    def __init__(self, key: bytes, recorder: Optional[TraceRecorder] = None) -> None:
        if len(key) != KEY_SIZE:
            raise InvalidKeyLength("DES", len(key), "8")
        self._key = bytes(key)
        self.recorder = recorder
        if fastpath.dispatch_path(recorder) == "reference":
            self._round_keys_dec  # a probed cipher expands before its first block

    @cached_property
    def _round_keys(self) -> List[int]:
        """The reference loops' round keys, expanded on first use."""
        return expand_key(self._key)

    @cached_property
    def _round_keys_dec(self) -> List[int]:
        """The reversed schedule, cached so decryption never rebuilds it."""
        return list(reversed(self._round_keys))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("DES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            return fastpath.des_cbc(block, 0, self._schedule(False))
        return int_to_bytes(
            _crypt_block(bytes_to_int(block), self._round_keys, self.recorder), 8
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("DES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            return fastpath.des_cbc(block, 0, self._schedule(True))
        return int_to_bytes(
            _crypt_block(bytes_to_int(block), self._round_keys_dec, self.recorder), 8
        )

    def _kernel_keys(self, decrypt: bool) -> List[int]:
        keys = expand_key(self._key)
        return keys[::-1] if decrypt else keys


def sbox_lookup(box: int, six_bits: int) -> int:
    """Public S-box lookup used by the DPA attack's hypothesis function."""
    row = ((six_bits >> 4) & 0b10) | (six_bits & 1)
    col = (six_bits >> 1) & 0xF
    return _SBOXES[box][row][col]


def expansion(right: int) -> int:
    """Public E-expansion used by the DPA attack's hypothesis function."""
    return permute_bits(right, _E, 32)


def initial_permutation(block64: int) -> int:
    """Expose IP for attack code that models first-round intermediates."""
    return permute_bits(block64, _IP, 64)
