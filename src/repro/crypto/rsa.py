"""RSA — key generation, PKCS#1 v1.5 encryption/signatures, CRT.

RSA is the paper's running public-key example: the SSL handshake's key
exchange (§3.1, §3.2's "RSA based connection set-ups"), the sensor
node's 42 mJ/KB encryption overhead (§3.3), and both headline
implementation attacks of §3.4 — the timing attack on modular
exponentiation and the fault attack on the Chinese-Remainder-Theorem
speedup ("A well-known example is the implementation of the RSA
public-key cryptosystem using the CRT for improving the performance").

The private-key operation is therefore deliberately configurable:

* ``use_crt``      — the CRT speedup (≈4x) the fault attack targets;
* ``fault_hook``   — lets :mod:`repro.attacks.fault` corrupt one CRT
  half-exponentiation, exactly the Bellcore fault model;
* ``verify_result``— the standard countermeasure (re-encrypt and
  compare before releasing a signature);
* ``timer`` / ``leaky`` — route exponentiation through the
  instrumented Montgomery code so timing attacks see real variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

from .bitops import bytes_to_int, int_to_bytes
from .errors import DecryptionError, ParameterError, SignatureError
from .modmath import OperationTimer, invmod, modexp, modexp_ladder, modexp_sqm
from .primes import generate_prime
from .rng import DeterministicDRBG
from .sha1 import sha1

# DigestInfo DER prefixes for PKCS#1 v1.5 signatures.
DIGESTINFO_SHA1 = bytes.fromhex("3021300906052b0e03021a05000414")
DIGESTINFO_MD5 = bytes.fromhex("3020300c06082a864886f70d020505000410")

FaultHook = Callable[[str, int], int]


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    @property
    def bit_length(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def encrypt_raw(self, message: int) -> int:
        """Textbook RSA encryption m^e mod n."""
        if not 0 <= message < self.n:
            raise ParameterError("RSA message representative out of range")
        return modexp(message, self.e, self.n)

    def encrypt(self, plaintext: bytes, rng: DeterministicDRBG) -> bytes:
        """PKCS#1 v1.5 type-2 encryption."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise ParameterError(
                f"plaintext too long for {self.bit_length}-bit RSA "
                f"({len(plaintext)} > {k - 11})"
            )
        padding = rng.nonzero_bytes(k - len(plaintext) - 3)
        block = b"\x00\x02" + padding + b"\x00" + plaintext
        return int_to_bytes(self.encrypt_raw(bytes_to_int(block)), k)

    def verify(self, message: bytes, signature: bytes,
               digestinfo: bytes = DIGESTINFO_SHA1) -> None:
        """Verify a PKCS#1 v1.5 signature; raises :class:`SignatureError`."""
        if len(signature) != self.byte_length:
            raise SignatureError("signature length does not match modulus")
        decrypted = int_to_bytes(
            modexp(bytes_to_int(signature), self.e, self.n), self.byte_length
        )
        digest = sha1(message) if digestinfo == DIGESTINFO_SHA1 else None
        if digest is None:
            raise SignatureError("unsupported DigestInfo")
        expected = _emsa_pkcs1(digestinfo + digest, self.byte_length)
        if decrypted != expected:
            raise SignatureError("RSA signature verification failed")


def _emsa_pkcs1(t: bytes, k: int) -> bytes:
    if len(t) + 11 > k:
        raise ParameterError("modulus too small for DigestInfo encoding")
    return b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RSAPublicKey:
        """The corresponding public key."""
        return RSAPublicKey(self.n, self.e)

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    # -- core private-key operation -----------------------------------------

    def decrypt_raw(
        self,
        ciphertext: int,
        use_crt: bool = True,
        fault_hook: Optional[FaultHook] = None,
        verify_result: bool = False,
        timer: Optional[OperationTimer] = None,
        leaky: bool = True,
    ) -> int:
        """The RSA private operation c^d mod n, with implementation knobs.

        ``leaky`` selects square-and-multiply (timing-variant) vs.
        Montgomery ladder; either is engaged only when a ``timer`` is
        attached.  Without one the fast builtin ``pow`` runs, also when
        a fault hook is present: the hook corrupts a CRT half's result,
        not the exponentiation itself.
        """
        if not 0 <= ciphertext < self.n:
            raise ParameterError("RSA ciphertext representative out of range")
        if use_crt:
            result = self._decrypt_crt(ciphertext, fault_hook, timer, leaky)
        else:
            result = self._modexp(ciphertext, self.d, self.n, timer, leaky)
        if verify_result and modexp(result, self.e, self.n) != ciphertext:
            raise SignatureError(
                "CRT self-check failed: computation fault detected, "
                "result withheld (Bellcore countermeasure)"
            )
        return result

    @cached_property
    def _crt_constants(self) -> Tuple[int, int, int]:
        """``(d mod (p-1), d mod (q-1), q^-1 mod p)``.

        Fixed by the key, so computed on the first CRT operation and
        kept in the instance ``__dict__`` (the frozen fields, ``==``
        and ``hash`` are untouched; :func:`dataclasses.replace` builds
        a fresh instance with no cache)."""
        return (self.d % (self.p - 1), self.d % (self.q - 1),
                invmod(self.q, self.p))

    def _decrypt_crt(self, c: int, fault_hook: Optional[FaultHook],
                     timer: Optional[OperationTimer], leaky: bool) -> int:
        dp, dq, q_inv = self._crt_constants
        mp = self._modexp(c % self.p, dp, self.p, timer, leaky)
        mq = self._modexp(c % self.q, dq, self.q, timer, leaky)
        if fault_hook is not None:
            mp = fault_hook("p", mp) % self.p
            mq = fault_hook("q", mq) % self.q
        h = (q_inv * (mp - mq)) % self.p
        return (mq + h * self.q) % self.n

    @staticmethod
    def _modexp(base: int, exponent: int, modulus: int,
                timer: Optional[OperationTimer], leaky: bool) -> int:
        if timer is None:
            return modexp(base, exponent, modulus)
        if leaky:
            return modexp_sqm(base, exponent, modulus, timer)
        return modexp_ladder(base, exponent, modulus, timer)

    # -- padded operations ----------------------------------------------------

    def decrypt(self, ciphertext: bytes, **kwargs) -> bytes:
        """PKCS#1 v1.5 type-2 decryption."""
        k = self.byte_length
        if len(ciphertext) != k:
            raise DecryptionError("ciphertext length does not match modulus")
        block = int_to_bytes(self.decrypt_raw(bytes_to_int(ciphertext), **kwargs), k)
        if not block.startswith(b"\x00\x02"):
            raise DecryptionError("PKCS#1 block type invalid")
        try:
            separator = block.index(b"\x00", 2)
        except ValueError:
            raise DecryptionError("PKCS#1 separator missing") from None
        if separator < 10:
            raise DecryptionError("PKCS#1 padding string too short")
        return block[separator + 1 :]

    def sign(self, message: bytes, digestinfo: bytes = DIGESTINFO_SHA1,
             **kwargs) -> bytes:
        """PKCS#1 v1.5 signature over SHA-1(message)."""
        digest = sha1(message)
        encoded = _emsa_pkcs1(digestinfo + digest, self.byte_length)
        return int_to_bytes(
            self.decrypt_raw(bytes_to_int(encoded), **kwargs), self.byte_length
        )


def generate_keypair(bits: int, rng: DeterministicDRBG,
                     e: int = 65537) -> RSAPrivateKey:
    """Generate an RSA key pair with an exactly ``bits``-bit modulus.

    Small moduli (256–768 bits) keep the pure-Python simulation fast
    and match the key sizes 2003-era constrained handsets actually
    deployed; the attack demonstrations scale to any size.
    """
    if bits < 64:
        raise ParameterError(f"RSA modulus of {bits} bits is too small to pad")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if n.bit_length() != bits:
            continue
        try:
            d = invmod(e, phi)
        except ParameterError:
            continue
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)
