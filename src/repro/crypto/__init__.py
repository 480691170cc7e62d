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

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fastpath": "fastpath",
    ".rng": "DeterministicDRBG",
})
