"""Triple DES (EDE) — the cipher behind the paper's 651.3-MIPS figure.

Section 3.2 quantifies the security processing gap using a protocol
that encrypts with 3DES; Section 3.1 lists 3-DES among the suites an
RSA-key-exchange SSL client must support.  We implement the standard
encrypt-decrypt-encrypt construction over :class:`repro.crypto.des.DES`
with 1-, 2-, and 3-key keying options (FIPS 46-3 keying options 3, 2
and 1 respectively).
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

from . import fastpath
from .des import DES, DESKernel, BLOCK_SIZE, expand_key
from .errors import InvalidBlockSize, InvalidKeyLength
from .trace import TraceRecorder


class TripleDES(DESKernel):
    """3DES-EDE block cipher.

    Accepts 8-byte (degenerate, equivalent to single DES), 16-byte
    (K1, K2, K1) or 24-byte (K1, K2, K3) keys.

    An instance keeps K1 ‖ K2 ‖ K3 as 24 key bytes.  The reference
    path's three :class:`~repro.crypto.des.DES` passes are built on
    their first use and cached, at construction when a recorder is
    given or the fast path is off.
    """

    name = "3DES"
    block_size = BLOCK_SIZE
    key_size = 24

    def __init__(self, key: bytes, recorder: Optional[TraceRecorder] = None) -> None:
        if len(key) == 8:
            key = key * 3
        elif len(key) == 16:
            key = key + key[:8]
        elif len(key) != 24:
            raise InvalidKeyLength("3DES", len(key), "8, 16 or 24")
        self._key = bytes(key)
        self.recorder = recorder
        if fastpath.dispatch_path(recorder) == "reference":
            self._passes  # a probed cipher keys its passes before its first block

    @cached_property
    def _passes(self) -> tuple:
        """The reference path's three DES passes, built on first use."""
        key = self._key
        return tuple(DES(key[i:i + 8], self.recorder) for i in (0, 8, 16))

    def encrypt_block(self, block: bytes) -> bytes:
        """EDE encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("3DES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            return fastpath.des_cbc(block, 0, self._schedule(False))
        des1, des2, des3 = self._passes
        return des3.encrypt_block(des2.decrypt_block(des1.encrypt_block(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """EDE decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockSize("3DES", len(block), BLOCK_SIZE)
        if self.recorder is None and fastpath.enabled():
            return fastpath.des_cbc(block, 0, self._schedule(True))
        des1, des2, des3 = self._passes
        return des1.decrypt_block(des2.encrypt_block(des3.decrypt_block(block)))

    def _kernel_keys(self, decrypt: bool) -> List[int]:
        # All three passes in one schedule: the fast kernel runs the 48
        # rounds in one frame (one IP, one FP).  EDE decryption runs the
        # encryption schedule backwards.
        key = self._key
        keys = expand_key(key[:8]) + expand_key(key[8:16])[::-1] + expand_key(key[16:])
        return keys[::-1] if decrypt else keys
