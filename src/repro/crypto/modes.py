"""Block-cipher modes of operation (ECB, CBC, CTR).

The protocol stacks chain the raw block ciphers through these modes:
mini-TLS/WTLS and ESP use CBC with explicit IVs (the 2003-era default),
CTR is provided for the stream-like workloads the paper's data-rate
sweeps model, and ECB exists for test vectors and as the building
block the others compose.
"""

from __future__ import annotations

import warnings
from typing import Protocol

from . import fastpath
from .bitops import split_blocks, xor_bytes
from .errors import InvalidBlockSize, PaddingError, ParameterError
from .padding import pkcs7_pad, pkcs7_unpad


class BlockCipher(Protocol):
    """Structural type implemented by DES/3DES/AES/RC2."""

    name: str
    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...  # noqa: E704

    def decrypt_block(self, block: bytes) -> bytes: ...  # noqa: E704


def _check_aligned(cipher: BlockCipher, data: bytes) -> None:
    """Ragged input is a crypto error, raised before any state changes."""
    if len(data) % cipher.block_size:
        raise InvalidBlockSize(cipher.name, len(data), cipher.block_size)


def _blocks(cipher: BlockCipher, data: bytes):
    """``data`` split into cipher blocks; ragged input is a crypto error."""
    _check_aligned(cipher, data)
    return split_blocks(data, cipher.block_size)


def _record_kernel(cipher: BlockCipher, name: str):
    """The cipher's whole-record CBC kernel, if the dispatch seam picks
    the fast path *right now*, else ``None``.

    Decided per call rather than per instance, so
    :func:`~repro.crypto.fastpath.force` and a recorder attached to a
    live connection's cipher take effect on its next record.  Ciphers
    without a kernel (RC2) and probed ciphers run the per-block loops,
    which keep the reference path's side-channel probes."""
    kernel = getattr(cipher, name, None)
    if kernel is not None and fastpath.dispatch_path(cipher.recorder) == "fast":
        return kernel
    return None


class ECB:
    """Electronic codebook — block-aligned inputs only."""

    def __init__(self, cipher: BlockCipher) -> None:
        self.cipher = cipher

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt block-aligned plaintext."""
        return b"".join(
            self.cipher.encrypt_block(block)
            for block in _blocks(self.cipher, plaintext)
        )

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt block-aligned ciphertext."""
        return b"".join(
            self.cipher.decrypt_block(block)
            for block in _blocks(self.cipher, ciphertext)
        )


class CBC:
    """Cipher-block chaining with explicit IV and PKCS#7 padding.

    A ``CBC`` instance binds one IV to one message: calling
    :meth:`encrypt` twice on the same instance reuses the IV, which
    leaks whether two messages share a prefix (the classic CBC
    IV-reuse hazard).  A second ``encrypt`` call here raises a
    :class:`RuntimeWarning` so the hazard cannot pass silently.

    Residue chaining — the TLS 1.0 record-layer discipline where the
    last ciphertext block of message *n* is message *n+1*'s IV — is the
    one sanctioned way to reuse an instance: :meth:`encrypt_next` /
    :meth:`decrypt_next` carry the residue across calls, so a record
    layer keeps **one** CBC context per direction instead of building a
    fresh object per record (the batched record plane's seam).
    """

    def __init__(self, cipher: BlockCipher, iv: bytes) -> None:
        if len(iv) != cipher.block_size:
            raise ParameterError(
                f"CBC IV must be {cipher.block_size} bytes, got {len(iv)}"
            )
        self.cipher = cipher
        self.iv = iv
        self._iv_consumed = False

    def encrypt(self, plaintext: bytes, pad: bool = True) -> bytes:
        """Encrypt (PKCS#7-padding by default)."""
        if self._iv_consumed:
            warnings.warn(
                "CBC.encrypt called again on the same instance: reusing the "
                "IV leaks plaintext prefix equality; build a fresh CBC (or "
                "chain the last ciphertext block as the next IV) per message",
                RuntimeWarning,
                stacklevel=2,
            )
        if pad:
            plaintext = pkcs7_pad(plaintext, self.cipher.block_size)
        ciphertext = self._encrypt_chain(plaintext)
        self._iv_consumed = True
        return ciphertext

    def decrypt(self, ciphertext: bytes, pad: bool = True) -> bytes:
        """Decrypt and strip padding (validating it)."""
        if not ciphertext:
            if pad:
                # Empty input *is* block-aligned; what is missing is the
                # mandatory PKCS#7 padding block, so say so.
                raise PaddingError(
                    "empty ciphertext: a padded CBC message carries at "
                    "least one padding block"
                )
            return b""
        plaintext = self._decrypt_chain(ciphertext)
        return pkcs7_unpad(plaintext, self.cipher.block_size) if pad else plaintext

    def _encrypt_chain(self, plaintext: bytes) -> bytes:
        """Chain block-aligned ``plaintext`` from :attr:`iv`; no state
        changes, and ragged input raises :class:`InvalidBlockSize`."""
        cipher = self.cipher
        _check_aligned(cipher, plaintext)
        kernel = _record_kernel(cipher, "cbc_encrypt")
        if kernel is not None:
            return kernel(plaintext, int.from_bytes(self.iv, "big"))
        previous = self.iv
        out = []
        encrypt_block = cipher.encrypt_block
        for block in split_blocks(plaintext, cipher.block_size):
            previous = encrypt_block(xor_bytes(block, previous))
            out.append(previous)
        return b"".join(out)

    def _decrypt_chain(self, ciphertext: bytes) -> bytes:
        """Unchain block-aligned ``ciphertext`` from :attr:`iv`; no state
        changes.  ``ciphertext`` may be a ``memoryview``."""
        cipher = self.cipher
        _check_aligned(cipher, ciphertext)
        kernel = _record_kernel(cipher, "cbc_decrypt")
        if kernel is not None:
            return kernel(ciphertext, int.from_bytes(self.iv, "big"))
        previous = self.iv
        out = []
        decrypt_block = cipher.decrypt_block
        for block in split_blocks(ciphertext, cipher.block_size):
            out.append(xor_bytes(decrypt_block(block), previous))
            previous = block
        return b"".join(out)

    # -- residue chaining (the record layers' batch seam) -------------------

    def encrypt_next(self, plaintext: bytes, pad: bool = True) -> bytes:
        """Encrypt one message and chain the residue as the next IV.

        Unlike :meth:`encrypt` this is *meant* to be called repeatedly:
        each message's last ciphertext block becomes the following
        message's IV (distinct per message, so no IV-reuse hazard and
        no warning).  State commits unconditionally — encryption cannot
        fail once input validation passed."""
        if pad:
            plaintext = pkcs7_pad(plaintext, self.cipher.block_size)
        ciphertext = self._encrypt_chain(plaintext)
        if ciphertext:
            self.iv = ciphertext[-self.cipher.block_size:]
        self._iv_consumed = True
        return ciphertext

    def decrypt_next(self, ciphertext: bytes, pad: bool = True,
                     commit: bool = True) -> bytes:
        """Decrypt one chained message; optionally defer the commit.

        With ``commit=False`` the residue IV is left untouched so a
        caller can verify the plaintext (e.g. a record MAC) first and
        only then :meth:`commit_residue` — the transactional-decoder
        contract: a rejected record must not advance the chain."""
        plaintext = self.decrypt(ciphertext, pad=pad)
        if commit:
            self.commit_residue(ciphertext)
        return plaintext

    def commit_residue(self, ciphertext: bytes) -> None:
        """Advance the chain: ``ciphertext``'s last block is the next IV.

        An empty ciphertext leaves the chain where it is; a ragged one
        raises :class:`InvalidBlockSize`."""
        if ciphertext:
            block_size = self.cipher.block_size
            if len(ciphertext) % block_size:
                raise InvalidBlockSize(
                    self.cipher.name, len(ciphertext), block_size)
            self.iv = bytes(ciphertext[-block_size:])


class CTR:
    """Counter mode — turns any block cipher into a stream cipher."""

    def __init__(self, cipher: BlockCipher, nonce: bytes) -> None:
        if len(nonce) != cipher.block_size:
            raise ParameterError(
                f"CTR nonce must be {cipher.block_size} bytes, got {len(nonce)}"
            )
        self.cipher = cipher
        self._counter = int.from_bytes(nonce, "big")
        self._block_bits = 8 * cipher.block_size

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt (same operation) arbitrary-length data."""
        out = bytearray()
        offset = 0
        block_size = self.cipher.block_size
        while offset < len(data):
            counter_block = (self._counter % (1 << self._block_bits)).to_bytes(
                block_size, "big"
            )
            keystream = self.cipher.encrypt_block(counter_block)
            self._counter += 1
            chunk = data[offset : offset + block_size]
            out += xor_bytes(chunk, keystream[: len(chunk)])
            offset += block_size
        return bytes(out)
