"""RSA, Diffie–Hellman, and primality."""

import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.fault import bellcore_attack
from repro.crypto import primes as primes_module
from repro.crypto.dh import DHGroup, DHParty
from repro.crypto.errors import (
    DecryptionError,
    ParameterError,
    SignatureError,
)
from repro.crypto.modmath import OperationTimer
from repro.crypto.primes import generate_prime, generate_safe_prime, is_prime
from repro.crypto.rng import DeterministicDRBG
from repro.crypto.rsa import RSAPublicKey, generate_keypair


class TestPrimes:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 97, 7919, 104729,
                                   2**31 - 1, 2**61 - 1])
    def test_known_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 100, 7917, 2**31, 2**61 - 2,
                                   3215031751])  # strong pseudoprime base 2..7
    def test_known_composites(self, n):
        assert not is_prime(n)

    def test_carmichael_numbers_rejected(self):
        for carmichael in (561, 1105, 1729, 2465, 41041, 825265):
            assert not is_prime(carmichael)

    def test_generate_prime_properties(self):
        rng = DeterministicDRBG(1)
        p = generate_prime(64, rng)
        assert p.bit_length() == 64
        assert p % 2 == 1
        assert is_prime(p)

    def test_generate_prime_deterministic(self):
        assert generate_prime(48, DeterministicDRBG(9)) == \
            generate_prime(48, DeterministicDRBG(9))

    def test_generate_prime_too_small(self):
        with pytest.raises(ValueError):
            generate_prime(4, DeterministicDRBG(0))

    def test_safe_prime(self):
        p = generate_safe_prime(40, DeterministicDRBG(2))
        assert is_prime(p)
        assert is_prime((p - 1) // 2)


class _OneDraw:
    """An rng whose one ``getrandbits`` draw is ``value``."""

    def __init__(self, value: int) -> None:
        self.value = value

    def getrandbits(self, bits: int) -> int:
        value, self.value = self.value, None
        assert value is not None, "a prime candidate was rejected"
        return value


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


class TestPrimeSieve:
    def test_keygen_moduli_unchanged(self):
        # sha256 over the 512-bit moduli of 12 DRBG labels, as generated
        # before candidates were sieved: the sieve only skips composites,
        # so the DRBG draws, and the keys, stay the same.
        moduli = b"".join(
            generate_keypair(512, DeterministicDRBG(f"keygen-pin-{i}"))
            .n.to_bytes(64, "big") for i in range(12))
        assert hashlib.sha256(moduli).hexdigest() == (
            "60eb7283065f646d883e27ff535f99198956d4a74d306f5f97ae909005ae313a")

    @pytest.mark.parametrize("bits", range(8, 17))
    def test_every_small_prime_is_reachable(self, bits):
        # Trial division, independent of is_prime and the sieve.
        low = 3 << (bits - 2)
        primes = [n for n in range(low | 1, 1 << bits, 2)
                  if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]
        assert primes
        for prime in primes:
            assert generate_prime(bits, _OneDraw(prime)) == prime

    def test_sieve_product_is_the_odd_primes_below_the_limit(self):
        expected = 1
        for n in range(3, primes_module._SIEVE_LIMIT, 2):
            if all(n % d for d in range(3, int(n ** 0.5) + 1, 2)):
                expected *= n
        assert primes_module._odd_prime_product() == expected

    def test_witnesses_are_drawn_lazily(self):
        big = 2 ** 89 - 1  # a Mersenne prime above the deterministic limit
        composite = big * 1_000_003
        rng = _CountingRandom(5)
        assert not is_prime(composite, rng=rng)
        assert 1 <= rng.draws < 24
        rng = _CountingRandom(5)
        assert is_prime(big, rng=rng)
        assert rng.draws == 24


class TestRSAKeygen:
    def test_modulus_exact_bits(self, rsa_512):
        assert rsa_512.n.bit_length() == 512

    def test_key_equation(self, rsa_512):
        phi = (rsa_512.p - 1) * (rsa_512.q - 1)
        assert (rsa_512.e * rsa_512.d) % phi == 1

    def test_factors_multiply(self, rsa_512):
        assert rsa_512.p * rsa_512.q == rsa_512.n

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            generate_keypair(32, DeterministicDRBG(0))


class TestRSAEncryption:
    def test_roundtrip(self, rsa_512, drbg):
        ct = rsa_512.public.encrypt(b"secret", drbg)
        assert rsa_512.decrypt(ct) == b"secret"

    def test_randomised_padding(self, rsa_512, drbg):
        a = rsa_512.public.encrypt(b"same message", drbg)
        b = rsa_512.public.encrypt(b"same message", drbg)
        assert a != b
        assert rsa_512.decrypt(a) == rsa_512.decrypt(b)

    def test_max_length_enforced(self, rsa_512, drbg):
        too_long = bytes(rsa_512.byte_length - 10)
        with pytest.raises(ParameterError):
            rsa_512.public.encrypt(too_long, drbg)

    def test_tampered_ciphertext_fails(self, rsa_512, drbg):
        ct = bytearray(rsa_512.public.encrypt(b"secret", drbg))
        ct[-1] ^= 0x55
        with pytest.raises(DecryptionError):
            rsa_512.decrypt(bytes(ct))

    def test_wrong_length_ciphertext(self, rsa_512):
        with pytest.raises(DecryptionError):
            rsa_512.decrypt(b"short")

    def test_raw_range_check(self, rsa_512):
        with pytest.raises(ParameterError):
            rsa_512.public.encrypt_raw(rsa_512.n)
        with pytest.raises(ParameterError):
            rsa_512.decrypt_raw(rsa_512.n + 1)


class TestRSASignatures:
    def test_sign_verify(self, rsa_512):
        signature = rsa_512.sign(b"document")
        rsa_512.public.verify(b"document", signature)

    def test_wrong_message_rejected(self, rsa_512):
        signature = rsa_512.sign(b"document")
        with pytest.raises(SignatureError):
            rsa_512.public.verify(b"other document", signature)

    def test_tampered_signature_rejected(self, rsa_512):
        signature = bytearray(rsa_512.sign(b"document"))
        signature[3] ^= 1
        with pytest.raises(SignatureError):
            rsa_512.public.verify(b"document", bytes(signature))

    def test_wrong_key_rejected(self, rsa_512, rsa_384):
        signature = rsa_512.sign(b"document")
        with pytest.raises(SignatureError):
            RSAPublicKey(rsa_384.n, rsa_384.e).verify(
                b"document"[:10], signature[:rsa_384.byte_length])

    def test_crt_and_plain_signatures_agree(self, rsa_512):
        assert rsa_512.sign(b"msg", use_crt=True) == \
            rsa_512.sign(b"msg", use_crt=False)


class TestRSACRTConstants:
    """``d mod (p-1)``, ``d mod (q-1)`` and ``q^-1 mod p`` are computed
    once per key and kept on the instance."""

    @staticmethod
    def _fresh_key():
        return generate_keypair(384, DeterministicDRBG("crt-constants"))

    def test_cached_constants_equal_fresh_ones(self, rsa_512):
        rsa_512.decrypt_raw(12345)
        dp, dq, q_inv = rsa_512._crt_constants
        assert dp == rsa_512.d % (rsa_512.p - 1)
        assert dq == rsa_512.d % (rsa_512.q - 1)
        assert q_inv == pow(rsa_512.q, -1, rsa_512.p)
        assert (q_inv * rsa_512.q) % rsa_512.p == 1

    def test_computed_once_per_key(self):
        key = self._fresh_key()
        assert "_crt_constants" not in vars(key)
        key.decrypt_raw(7)
        first = vars(key)["_crt_constants"]
        key.decrypt_raw(8)
        assert vars(key)["_crt_constants"] is first

    def test_equality_hash_and_repr_unaffected(self):
        used, unused = self._fresh_key(), self._fresh_key()
        used.decrypt_raw(99)
        assert used == unused
        assert hash(used) == hash(unused)
        assert repr(used) == repr(unused)
        assert len({used, unused}) == 1

    def test_replace_builds_fresh_constants(self):
        key = self._fresh_key()
        key.decrypt_raw(5)
        swapped = dataclasses.replace(key, p=key.q, q=key.p)
        assert "_crt_constants" not in vars(swapped)
        for message in (0, 1, 2, 12345, key.n - 1):
            assert swapped.decrypt_raw(message) == key.decrypt_raw(message)
        assert swapped._crt_constants[2] == pow(key.p, -1, key.q)

    def test_pickle_round_trip(self):
        key = self._fresh_key()
        before = pickle.loads(pickle.dumps(key))
        key.decrypt_raw(31337)
        after = pickle.loads(pickle.dumps(key))
        assert before == after == key
        for clone in (before, after):
            assert clone.decrypt_raw(31337) == key.decrypt_raw(31337)
            assert clone._crt_constants == key._crt_constants

    @settings(max_examples=30, deadline=None)
    @given(message=st.integers(min_value=0))
    def test_crt_and_non_crt_agree(self, rsa_512, message):
        message %= rsa_512.n
        crt = rsa_512.decrypt_raw(message)
        assert crt == rsa_512.decrypt_raw(message, use_crt=False)
        assert crt == pow(message, rsa_512.d, rsa_512.n)

    def test_timer_and_fault_paths_use_the_same_constants(self, rsa_512):
        timer = OperationTimer()
        expected = pow(4242, rsa_512.d, rsa_512.n)
        assert rsa_512.decrypt_raw(4242, timer=timer) == expected
        assert rsa_512.decrypt_raw(4242, timer=timer, leaky=False) == expected
        assert timer.total > 0
        assert rsa_512.decrypt_raw(
            4242, fault_hook=lambda half, value: value) == expected

    def test_bellcore_fault_still_recovers_a_factor(self, rsa_512):
        rsa_512.sign(b"warm the cache")
        message = b"pay 100 EUR"
        faulty = rsa_512.sign(
            message, fault_hook=lambda half, value: value ^ 1 if half == "q"
            else value)
        factors = bellcore_attack(rsa_512.public, message, faulty)
        assert factors is not None
        assert set(factors) == {rsa_512.p, rsa_512.q}
        with pytest.raises(SignatureError):
            rsa_512.sign(message, verify_result=True,
                         fault_hook=lambda half, value: value ^ 1
                         if half == "q" else value)


class TestDH:
    def test_oakley_group_valid(self):
        DHGroup.oakley1().validate()

    def test_shared_secret_agreement(self):
        group = DHGroup.oakley1()
        alice = DHParty(group, DeterministicDRBG(1))
        bob = DHParty(group, DeterministicDRBG(2))
        assert alice.shared_secret(bob.public) == \
            bob.shared_secret(alice.public)

    def test_shared_key_length(self):
        group = DHGroup.oakley1()
        alice = DHParty(group, DeterministicDRBG(1))
        bob = DHParty(group, DeterministicDRBG(2))
        assert len(alice.shared_key(bob.public, 24)) == 24

    @pytest.mark.parametrize("degenerate", [0, 1])
    def test_degenerate_public_rejected(self, degenerate):
        group = DHGroup.oakley1()
        alice = DHParty(group, DeterministicDRBG(1))
        with pytest.raises(ParameterError):
            alice.shared_secret(degenerate)

    def test_p_minus_one_rejected(self):
        group = DHGroup.oakley1()
        alice = DHParty(group, DeterministicDRBG(1))
        with pytest.raises(ParameterError):
            alice.shared_secret(group.p - 1)

    def test_generated_group(self):
        group = DHGroup.generate(48, DeterministicDRBG(3))
        group.validate()
        alice = DHParty(group, DeterministicDRBG(4))
        bob = DHParty(group, DeterministicDRBG(5))
        assert alice.shared_secret(bob.public) == \
            bob.shared_secret(alice.public)

    def test_invalid_group_rejected(self):
        with pytest.raises(ParameterError):
            DHGroup(p=100, g=2).validate()


@settings(max_examples=15, deadline=None)
@given(message=st.binary(min_size=1, max_size=37))
def test_rsa_roundtrip_property(rsa_512, message):
    rng = DeterministicDRBG(message)
    assert rsa_512.decrypt(rsa_512.public.encrypt(message, rng)) == message


@settings(max_examples=10, deadline=None)
@given(message=st.binary(min_size=0, max_size=120))
def test_rsa_signature_property(rsa_512, message):
    rsa_512.public.verify(message, rsa_512.sign(message))
