"""Cipher-suite definitions — the §3.1 flexibility matrix in code.

"For key exchange, cryptographic algorithms such as RSA and KEA are
possible choices.  For symmetric encryption, an RSA key exchange based
SSL cipher suite would need to support 3-DES, RC4, RC2 or DES, along
with the appropriate message authentication algorithm (SHA-1 or MD5)."

A :class:`CipherSuite` names a (key-exchange, cipher, MAC) triple and
knows how to build the record-layer transforms from negotiated key
material; the default suite list is exactly the paper's matrix, and
the AES suites appear only after an
:func:`~repro.crypto.registry.aes_rollout` (the June 2002 TLS
revision event from Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..crypto.a51 import A51
from ..crypto.aes import AES
from ..crypto.des import DES
from ..crypto.grain import Grain
from ..crypto.md5 import MD5
from ..crypto.rc2 import RC2
from ..crypto.rc4 import RC4
from ..crypto.registry import AlgorithmRegistry
from ..crypto.sha1 import SHA1
from ..crypto.tdes import TripleDES
from ..crypto.trivium import Trivium


_CIPHER_FACTORIES = {
    "DES": DES, "3DES": TripleDES, "AES": AES,
    "RC4": RC4, "RC2": RC2,
    "A51": A51, "GRAIN": Grain, "TRIVIUM": Trivium,
}


@dataclass(frozen=True)
class CipherSuite:
    """One negotiable protection combination.

    ``cipher_kind`` is ``block`` or ``stream``; block suites run CBC
    with an explicit per-direction IV.  Stream suites (RC4, A5/1,
    Grain, Trivium) XOR a keystream: TLS keeps one keystream per
    direction for the connection, while WTLS builds a fresh one for
    every record from ``key XOR sequence``.
    """

    name: str
    key_exchange: str          # "RSA", "DH" or "KEA"
    cipher: str                # registry name, or "NULL"
    cipher_kind: str
    cipher_key_bytes: int
    iv_bytes: int
    mac: str                   # "SHA1" or "MD5"
    mac_key_bytes: int
    export_grade: bool = False

    @property
    def hash_factory(self) -> Callable:
        """Hash constructor for this suite's HMAC."""
        return SHA1 if self.mac == "SHA1" else MD5

    def make_cipher(self, key: bytes):
        """Instantiate the bulk cipher with a negotiated key."""
        if self.cipher == "NULL":
            return None
        return _CIPHER_FACTORIES[self.cipher](key)


# The paper's §3.1 matrix: RSA key exchange x {3DES, RC4, RC2, DES} x
# {SHA-1, MD5}, plus a DH suite and NULL for testing.
RSA_WITH_3DES_SHA = CipherSuite(
    "RSA_WITH_3DES_EDE_CBC_SHA", "RSA", "3DES", "block", 24, 8, "SHA1", 20)
RSA_WITH_3DES_MD5 = CipherSuite(
    "RSA_WITH_3DES_EDE_CBC_MD5", "RSA", "3DES", "block", 24, 8, "MD5", 16)
RSA_WITH_RC4_SHA = CipherSuite(
    "RSA_WITH_RC4_128_SHA", "RSA", "RC4", "stream", 16, 0, "SHA1", 20)
RSA_WITH_RC4_MD5 = CipherSuite(
    "RSA_WITH_RC4_128_MD5", "RSA", "RC4", "stream", 16, 0, "MD5", 16)
RSA_WITH_DES_SHA = CipherSuite(
    "RSA_WITH_DES_CBC_SHA", "RSA", "DES", "block", 8, 8, "SHA1", 20)
RSA_WITH_RC2_MD5 = CipherSuite(
    "RSA_EXPORT_WITH_RC2_CBC_40_MD5", "RSA", "RC2", "block", 16, 8, "MD5", 16,
    export_grade=True)
RSA_WITH_AES_SHA = CipherSuite(
    "RSA_WITH_AES_128_CBC_SHA", "RSA", "AES", "block", 16, 16, "SHA1", 20)
DH_WITH_3DES_SHA = CipherSuite(
    "DH_WITH_3DES_EDE_CBC_SHA", "DH", "3DES", "block", 24, 8, "SHA1", 20)
KEA_WITH_3DES_SHA = CipherSuite(
    "KEA_WITH_3DES_EDE_CBC_SHA", "KEA", "3DES", "block", 24, 8, "SHA1", 20)
NULL_WITH_SHA = CipherSuite(
    "NULL_WITH_SHA", "RSA", "NULL", "stream", 0, 0, "SHA1", 20)

# The lightweight m-commerce family (Pourghasem et al., PAPERS.md).
# Stream suites carry no separate IV: the key blob is key || frame/IV,
# so the WTLS per-record rekey (key XOR sequence) lands in the
# trailing bytes — the GSM frame-number discipline for A5/1, a
# per-record re-IV for Grain/Trivium.
RSA_WITH_A51_228_SHA = CipherSuite(
    "RSA_WITH_A51_228_SHA", "RSA", "A51", "stream", 11, 0, "SHA1", 20)
RSA_WITH_GRAIN_V1_SHA = CipherSuite(
    "RSA_WITH_GRAIN_V1_SHA", "RSA", "GRAIN", "stream", 18, 0, "SHA1", 20)
RSA_WITH_TRIVIUM_SHA = CipherSuite(
    "RSA_WITH_TRIVIUM_SHA", "RSA", "TRIVIUM", "stream", 20, 0, "SHA1", 20)

ALL_SUITES: List[CipherSuite] = [
    RSA_WITH_3DES_SHA, RSA_WITH_3DES_MD5, RSA_WITH_RC4_SHA, RSA_WITH_RC4_MD5,
    RSA_WITH_DES_SHA, RSA_WITH_RC2_MD5, RSA_WITH_AES_SHA, DH_WITH_3DES_SHA,
    KEA_WITH_3DES_SHA, NULL_WITH_SHA,
    RSA_WITH_A51_228_SHA, RSA_WITH_GRAIN_V1_SHA, RSA_WITH_TRIVIUM_SHA,
]

LIGHTWEIGHT_SUITES: List[CipherSuite] = [
    RSA_WITH_A51_228_SHA, RSA_WITH_GRAIN_V1_SHA, RSA_WITH_TRIVIUM_SHA,
]

SUITES_BY_NAME = {suite.name: suite for suite in ALL_SUITES}


def suites_for_registry(registry: AlgorithmRegistry,
                        include_null: bool = False) -> List[CipherSuite]:
    """Suites whose cipher and MAC are both available (and current).

    This is how the flexibility requirement bites: a handset whose
    registry lacks AES simply cannot negotiate the AES suites until a
    firmware rollout registers it.
    """
    available = []
    for suite in ALL_SUITES:
        if suite.cipher == "NULL":
            if include_null:
                available.append(suite)
            continue
        if suite.cipher in registry and suite.mac in registry:
            available.append(suite)
    return available


def negotiate(client_suites: List[CipherSuite],
              server_suites: List[CipherSuite]) -> Optional[CipherSuite]:
    """Pick the first client-preferred suite the server also supports."""
    server_names = {suite.name for suite in server_suites}
    for suite in client_suites:
        if suite.name in server_names:
            return suite
    return None
