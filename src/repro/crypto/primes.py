"""Primality testing and prime generation for RSA/DH key material.

Deterministic Miller–Rabin witness sets are used below well-known
thresholds so the small keys our simulations favour (256–768 bits —
period-appropriate for 2003 handsets and fast in pure Python) are
proven prime, with random witnesses stacked on top for larger inputs.
:func:`generate_prime` first drops candidates that share a factor with
the odd primes below :data:`_SIEVE_LIMIT` (one ``math.gcd``), so most
composites never reach a Miller–Rabin round.
"""

from __future__ import annotations

import math
import random
from typing import Optional

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

# Jaeschke/Sorenson-Webster: these witnesses are deterministic below 3.3e24.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_DETERMINISTIC_LIMIT = 3317044064679887385961981

#: :func:`generate_prime` sieves candidates against the odd primes below
#: this bound.
_SIEVE_LIMIT = 4096
_SIEVE_PRODUCT: Optional[int] = None


def _odd_prime_product() -> int:
    """The product of the odd primes below :data:`_SIEVE_LIMIT`, built
    by a sieve of Eratosthenes on first use (not at import)."""
    global _SIEVE_PRODUCT
    if _SIEVE_PRODUCT is None:
        composite = bytearray(_SIEVE_LIMIT)
        product = 1
        for p in range(3, _SIEVE_LIMIT, 2):
            if not composite[p]:
                product *= p
                multiples = range(p * p, _SIEVE_LIMIT, 2 * p)
                composite[p * p::2 * p] = b"\x01" * len(multiples)
        _SIEVE_PRODUCT = product
    return _SIEVE_PRODUCT


def _miller_rabin_round(n: int, a: int) -> bool:
    """One Miller–Rabin round; True if ``n`` passes for witness ``a``."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = 24, rng: Optional[random.Random] = None) -> bool:
    """Miller–Rabin primality test.

    Deterministic for ``n`` below ~3.3e24; probabilistic with
    ``rounds`` random witnesses above (error < 4^-rounds).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        witnesses = (a for a in _DETERMINISTIC_WITNESSES if a < n)
    else:
        rng = rng or random.Random(0xC0FFEE ^ (n & 0xFFFF))
        # Drawn lazily: a composite stops at its first failed round.
        witnesses = (rng.randrange(2, n - 1) for _ in range(rounds))
    return all(_miller_rabin_round(n, a) for a in witnesses)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2*bits`` bits (the RSA keygen convention), and
    the candidate is forced odd.  Above 12 bits every candidate exceeds
    :data:`_SIEVE_LIMIT`, so one sharing a factor with
    :func:`_odd_prime_product` is composite and is skipped without a
    Miller–Rabin round; the draws, and so the primes, are unchanged.
    """
    if bits < 8:
        raise ValueError(f"prime size {bits} bits too small (need >= 8)")
    sieve = _odd_prime_product() if bits > 12 else 1
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if math.gcd(candidate, sieve) == 1 and is_prime(candidate):
            return candidate


def generate_safe_prime(bits: int, rng: random.Random) -> int:
    """Generate a safe prime p (p = 2q + 1 with q prime) for DH groups."""
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_prime(p):
            return p
