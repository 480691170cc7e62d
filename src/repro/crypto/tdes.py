"""Triple DES (EDE) — the cipher behind the paper's 651.3-MIPS figure.

Section 3.2 quantifies the security processing gap using a protocol
that encrypts with 3DES; Section 3.1 lists 3-DES among the suites an
RSA-key-exchange SSL client must support.  We implement the standard
encrypt-decrypt-encrypt construction over :class:`repro.crypto.des.DES`
with 1-, 2-, and 3-key keying options (FIPS 46-3 keying options 3, 2
and 1 respectively).
"""

from __future__ import annotations

from typing import List, Optional

from . import fastpath
from .des import DES, DESKernel, BLOCK_SIZE
from .errors import InvalidBlockSize, InvalidKeyLength
from .trace import TraceRecorder


class TripleDES(DESKernel):
    """3DES-EDE block cipher.

    Accepts 8-byte (degenerate, equivalent to single DES), 16-byte
    (K1, K2, K1) or 24-byte (K1, K2, K3) keys.
    """

    name = "3DES"
    block_size = BLOCK_SIZE
    key_size = 24

    def __init__(self, key: bytes, recorder: Optional[TraceRecorder] = None) -> None:
        if len(key) == 8:
            k1 = k2 = k3 = key
        elif len(key) == 16:
            k1, k2, k3 = key[:8], key[8:16], key[:8]
        elif len(key) == 24:
            k1, k2, k3 = key[:8], key[8:16], key[16:24]
        else:
            raise InvalidKeyLength("3DES", len(key), "8, 16 or 24")
        self._des1 = DES(k1, recorder)
        self._des2 = DES(k2, recorder)
        self._des3 = DES(k3, recorder)
        self.recorder = recorder

    def encrypt_block(self, block: bytes) -> bytes:
        """EDE encrypt one 8-byte block."""
        if self.recorder is None and fastpath.enabled():
            if len(block) != BLOCK_SIZE:
                raise InvalidBlockSize("3DES", len(block), BLOCK_SIZE)
            return fastpath.des_cbc(block, 0, self._schedule(False))
        return self._des3.encrypt_block(
            self._des2.decrypt_block(self._des1.encrypt_block(block))
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """EDE decrypt one 8-byte block."""
        if self.recorder is None and fastpath.enabled():
            if len(block) != BLOCK_SIZE:
                raise InvalidBlockSize("3DES", len(block), BLOCK_SIZE)
            return fastpath.des_cbc(block, 0, self._schedule(True))
        return self._des1.decrypt_block(
            self._des2.encrypt_block(self._des3.decrypt_block(block))
        )

    def _kernel_keys(self, decrypt: bool) -> List[int]:
        # All three passes in one schedule: the fast kernel runs the 48
        # rounds in one frame (one IP, one FP).
        des1, des2, des3 = self._des1, self._des2, self._des3
        if decrypt:
            return des3._round_keys_dec + des2._round_keys + des1._round_keys_dec
        return des1._round_keys + des2._round_keys_dec + des3._round_keys
