"""From-scratch cryptographic substrate.

Implements every algorithm the paper names (Sections 2, 3.1, 4.1):
DES/3DES, AES, RC4, RC2, SHA-1, MD5, HMAC, RSA (with CRT), and
Diffie–Hellman — plus the mode, padding, randomness, and registry
machinery the protocol stacks build on, and side-channel
instrumentation (:mod:`repro.crypto.trace`,
:class:`~repro.crypto.modmath.OperationTimer`) that substitutes for a
physical measurement bench.
"""

from .._lazy import lazy_exports

# Exports named like their submodule are bound now: importing the
# submodule first would otherwise rebind the name to the module.
from .hmac import hmac
from .md5 import md5
from .sha1 import sha1

__all__ = [
    "fastpath",
    "AES", "DES", "TripleDES", "RC2", "RC4", "MD5", "SHA1", "HMAC",
    "A51", "Grain", "Trivium",
    "md5", "sha1", "hmac", "hmac_verify",
    "ECB", "CBC", "CTR",
    "DHGroup", "DHParty", "KEAParty", "KEAKeyPair",
    "RSAPublicKey", "RSAPrivateKey", "generate_keypair",
    "modexp", "modexp_sqm", "modexp_ladder", "OperationTimer",
    "DeterministicDRBG", "HardwareTRNG",
    "TraceRecorder", "TraceSample",
    "AlgorithmRegistry", "AlgorithmInfo", "default_registry", "aes_rollout",
    "lightweight_rollout",
    "CryptoError", "DecryptionError", "IntegrityError", "InvalidBlockSize",
    "InvalidKeyLength", "PaddingError", "ParameterError", "RandomnessError",
    "SignatureError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".a51": "A51",
    ".aes": "AES",
    ".des": "DES",
    ".dh": "DHGroup DHParty",
    ".errors": "CryptoError DecryptionError IntegrityError InvalidBlockSize "
               "InvalidKeyLength PaddingError ParameterError RandomnessError "
               "SignatureError",
    ".fastpath": "fastpath",
    ".grain": "Grain",
    ".hmac": "HMAC hmac_verify",
    ".kea": "KEAKeyPair KEAParty",
    ".md5": "MD5",
    ".modes": "CBC CTR ECB",
    ".modmath": "OperationTimer modexp modexp_ladder modexp_sqm",
    ".rc2": "RC2",
    ".rc4": "RC4",
    ".registry": "AlgorithmInfo AlgorithmRegistry aes_rollout "
                 "default_registry lightweight_rollout",
    ".rng": "DeterministicDRBG HardwareTRNG",
    ".rsa": "RSAPrivateKey RSAPublicKey generate_keypair",
    ".sha1": "SHA1",
    ".tdes": "TripleDES",
    ".trace": "TraceRecorder TraceSample",
    ".trivium": "Trivium",
})
