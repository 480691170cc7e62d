"""HMAC (RFC 2104) over the from-scratch hash implementations.

The record layers (mini-TLS, WTLS, ESP) authenticate every record with
HMAC-SHA1 or HMAC-MD5, matching the "message authentication algorithm
(SHA-1 or MD5)" requirement of Section 3.1.  Verification uses a
constant-time comparison — the §3.4 timing-attack countermeasure.
"""

from __future__ import annotations

from typing import Callable, Union

from .bitops import constant_time_compare
from .errors import IntegrityError
from .md5 import MD5
from .sha1 import SHA1

HashFactory = Callable[[], Union[SHA1, MD5]]

# Byte-wise XOR with the RFC 2104 pad constants, as ``bytes.translate``
# tables: building a pad block is one C-level pass instead of a
# per-byte generator.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class HMAC:
    """Keyed-hash message authentication code.

    Parameters
    ----------
    key:
        MAC key of any length (hashed down if longer than the hash
        block, zero-padded if shorter, per RFC 2104).
    hash_factory:
        Zero-argument callable producing a fresh hash object —
        :class:`~repro.crypto.sha1.SHA1` or
        :class:`~repro.crypto.md5.MD5`.
    """

    def __init__(self, key: bytes, hash_factory: HashFactory = SHA1) -> None:
        self._factory = hash_factory
        probe = hash_factory()
        block_size = probe.block_size
        self.digest_size = probe.digest_size
        if len(key) > block_size:
            key = hash_factory().update(key).digest()
        key = key + b"\x00" * (block_size - len(key))
        # Key-schedule caching: absorb the ipad/opad blocks once here, so
        # every digest (and every copy) skips both key-block compressions.
        self._inner = hash_factory().update(key.translate(_IPAD))
        self._outer = hash_factory().update(key.translate(_OPAD))

    def update(self, data: bytes) -> "HMAC":
        """Absorb message bytes; returns self for chaining."""
        self._inner.update(data)
        return self

    def digest(self) -> bytes:
        """Finalize (non-destructively) and return the MAC."""
        inner_digest = self._inner.copy().digest()
        return self._outer.copy().update(inner_digest).digest()

    def hexdigest(self) -> str:
        """MAC as lowercase hex."""
        return self.digest().hex()

    def mac(self, message: bytes) -> bytes:
        """One-shot MAC of ``message`` from the cached pad states.

        Equivalent to ``self.copy().update(message).digest()`` but
        without allocating the intermediate ``HMAC`` wrapper: the
        batched record plane calls this once per record, so the only
        per-message work is the two hash-state clones the construction
        requires.  Leaves ``self`` untouched."""
        inner = self._inner.copy()
        inner.update(message)
        return self._outer.copy().update(inner.digest()).digest()

    def copy(self) -> "HMAC":
        """Independent copy of the running MAC state.

        Lets a caller key HMAC once and reuse the precomputed pad
        states for many messages (the DRBG and the record layers do
        this on their hot paths).
        """
        clone = object.__new__(HMAC)
        clone._factory = self._factory
        clone.digest_size = self.digest_size
        clone._inner = self._inner.copy()
        clone._outer = self._outer  # never mutated; digest() copies it
        return clone


def hmac(key: bytes, message: bytes, hash_factory: HashFactory = SHA1) -> bytes:
    """One-shot HMAC."""
    return HMAC(key, hash_factory).update(message).digest()


def hmac_verify(key: bytes, message: bytes, tag: bytes,
                hash_factory: HashFactory = SHA1) -> None:
    """Verify a MAC in constant time; raises :class:`IntegrityError`."""
    expected = hmac(key, message, hash_factory)
    if not constant_time_compare(expected, tag):
        raise IntegrityError("HMAC verification failed")
