"""HMAC (RFC 2104) over the from-scratch hash implementations.

The record layers (mini-TLS, WTLS, ESP) authenticate every record with
HMAC-SHA1 or HMAC-MD5, matching the "message authentication algorithm
(SHA-1 or MD5)" requirement of Section 3.1.  Verification uses a
constant-time comparison — the §3.4 timing-attack countermeasure.
"""

from __future__ import annotations

from typing import Type, Union

from .bitops import constant_time_compare
from .errors import IntegrityError
from .md5 import MD5
from .sha1 import SHA1

HashFactory = Union[Type[SHA1], Type[MD5]]

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
        The hash class, :class:`~repro.crypto.sha1.SHA1` or
        :class:`~repro.crypto.md5.MD5`: called with the initial data
        for a fresh hash object, and read for its ``block_size`` and
        ``digest_size`` class attributes.
    """

    def __init__(self, key: bytes, hash_factory: HashFactory = SHA1) -> None:
        self._factory = hash_factory
        block_size = hash_factory.block_size
        self.digest_size = hash_factory.digest_size
        if len(key) > block_size:
            key = hash_factory(key).digest()
        key = key.ljust(block_size, b"\x00")
        # Key-schedule caching: absorb the ipad/opad blocks once here, so
        # every digest (and every copy) skips both key-block compressions.
        self._inner = hash_factory(key.translate(_IPAD))
        self._outer = hash_factory(key.translate(_OPAD))

    def update(self, data: bytes) -> "HMAC":
        """Absorb message bytes; returns self for chaining."""
        self._inner.update(data)
        return self

    def digest(self) -> bytes:
        """Finalize (non-destructively) and return the MAC."""
        return self._outer.copy().update(self._inner.digest()).digest()

    def hexdigest(self) -> str:
        """MAC as lowercase hex."""
        return self.digest().hex()

    def mac(self, message: bytes) -> bytes:
        """One-shot MAC of ``message`` from the cached pad states.

        Equivalent to ``self.copy().update(message).digest()`` but
        without allocating the intermediate ``HMAC`` wrapper: the
        batched record plane calls this once per record, so the only
        per-message work is the two hash-state clones the construction
        requires.  Leaves ``self`` untouched.

        On the fast path both pad states are :mod:`hashlib` handles
        (the hash object's ``_impl``), cloned and finalised directly;
        the reference path keeps the hash-object chain."""
        inner = self._inner._impl
        if inner is None:
            inner = self._inner.copy()
            inner.update(message)
            return self._outer.copy().update(inner.digest()).digest()
        inner = inner.copy()
        inner.update(message)
        outer = self._outer._impl.copy()
        outer.update(inner.digest())
        return outer.digest()

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
