"""SHA-1 (FIPS 180-1), MD5 (RFC 1321), HMAC (RFC 2202) vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastpath
from repro.crypto.hmac import HMAC, hmac, hmac_verify
from repro.crypto.errors import IntegrityError
from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1


class TestSHA1Vectors:
    @pytest.mark.parametrize("message,digest", [
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
        (b"The quick brown fox jumps over the lazy dog",
         "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"),
    ])
    def test_known_answers(self, message, digest):
        assert sha1(message).hex() == digest

    def test_million_a(self):
        assert sha1(b"a" * 1_000_000).hex() == \
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"

    def test_incremental_matches_oneshot(self):
        message = b"incremental hashing across block boundaries " * 7
        hasher = SHA1()
        for offset in range(0, len(message), 13):
            hasher.update(message[offset:offset + 13])
        assert hasher.digest() == sha1(message)

    def test_digest_non_destructive(self):
        hasher = SHA1(b"abc")
        first = hasher.digest()
        assert hasher.digest() == first
        hasher.update(b"def")
        assert hasher.digest() == sha1(b"abcdef")

    def test_copy_independence(self):
        hasher = SHA1(b"abc")
        clone = hasher.copy()
        hasher.update(b"XYZ")
        assert clone.digest() == sha1(b"abc")

    def test_padding_boundary_lengths(self):
        # 55, 56, 63, 64 bytes straddle the length-field boundary.
        for length in (55, 56, 63, 64, 119, 120):
            message = b"Q" * length
            hasher = SHA1()
            hasher.update(message[:30])
            hasher.update(message[30:])
            assert hasher.digest() == sha1(message)


class TestMD5Vectors:
    @pytest.mark.parametrize("message,digest", [
        (b"", "d41d8cd98f00b204e9800998ecf8427e"),
        (b"a", "0cc175b9c0f1b6a831c399e269772661"),
        (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
        (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
        (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
         "d174ab98d277d9f5a5611c2c9f419d9f"),
        (b"1234567890" * 8,
         "57edf4a22be3c955ac49da2e2107b67a"),
    ])
    def test_rfc1321_suite(self, message, digest):
        assert md5(message).hex() == digest

    def test_incremental_matches_oneshot(self):
        message = bytes(range(256)) * 3
        hasher = MD5()
        for offset in range(0, len(message), 17):
            hasher.update(message[offset:offset + 17])
        assert hasher.digest() == md5(message)

    def test_copy_independence(self):
        hasher = MD5(b"abc")
        clone = hasher.copy()
        hasher.update(b"XYZ")
        assert clone.digest() == md5(b"abc")


class TestHMACVectors:
    """RFC 2202 test cases."""

    def test_sha1_case1(self):
        assert hmac(b"\x0b" * 20, b"Hi There").hex() == \
            "b617318655057264e28bc0b6fb378c8ef146be00"

    def test_sha1_case2(self):
        assert hmac(b"Jefe", b"what do ya want for nothing?").hex() == \
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"

    def test_sha1_case3(self):
        assert hmac(b"\xaa" * 20, b"\xdd" * 50).hex() == \
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"

    def test_sha1_long_key(self):
        assert hmac(
            b"\xaa" * 80,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        ).hex() == "aa4ae5e15272d00e95705637ce8a3b55ed402112"

    def test_md5_case1(self):
        assert hmac(b"\x0b" * 16, b"Hi There", MD5).hex() == \
            "9294727a3638bb1c13f48ef8158bfc9d"

    def test_md5_case2(self):
        assert hmac(b"Jefe", b"what do ya want for nothing?", MD5).hex() == \
            "750c783e6ab0b503eaa86e310a5db738"

    def test_incremental_interface(self):
        mac = HMAC(b"key").update(b"part one ").update(b"part two")
        assert mac.digest() == hmac(b"key", b"part one part two")

    def test_verify_accepts_valid(self):
        tag = hmac(b"key", b"message")
        hmac_verify(b"key", b"message", tag)  # should not raise

    def test_verify_rejects_tamper(self):
        tag = bytearray(hmac(b"key", b"message"))
        tag[0] ^= 1
        with pytest.raises(IntegrityError):
            hmac_verify(b"key", b"message", bytes(tag))

    def test_verify_rejects_wrong_length(self):
        with pytest.raises(IntegrityError):
            hmac_verify(b"key", b"message", b"short")


class TestHMACDispatchPaths:
    """``HMAC.mac`` works on hashlib handles on the fast path and on the
    from-scratch hash objects on the reference path: same bytes."""

    KEYS = [b"", b"k", b"\x0b" * 20, b"\xaa" * 64, b"\xaa" * 65,
            bytes(range(200))]
    MESSAGES = [b"", b"Hi There", b"x" * 64, bytes(range(256)) * 3]

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("factory,name", [(SHA1, "sha1"), (MD5, "md5")])
    def test_mac_matches_copy_and_stdlib(self, fast, factory, name):
        import hashlib
        import hmac as stdlib_hmac

        with fastpath.force(fast):
            for key in self.KEYS:
                keyed = HMAC(key, factory)
                assert keyed.digest_size == factory.digest_size
                for message in self.MESSAGES:
                    tag = keyed.mac(message)
                    assert tag == keyed.copy().update(message).digest()
                    assert tag == stdlib_hmac.new(
                        key, message, getattr(hashlib, name)).digest()
                    assert tag == hmac(key, message, factory)
                # mac() leaves the keyed state untouched.
                assert keyed.digest() == stdlib_hmac.new(
                    key, b"", getattr(hashlib, name)).digest()

    @pytest.mark.parametrize("factory", [SHA1, MD5])
    def test_backend_follows_the_switch_at_construction(self, factory):
        with fastpath.force(True):
            fast = HMAC(b"key", factory)
        with fastpath.force(False):
            reference = HMAC(b"key", factory)
        assert fast._inner._impl is not None
        assert reference._inner._impl is None
        # Each keeps its backend whatever the switch says later.
        with fastpath.force(False):
            assert fast.mac(b"msg") == reference.mac(b"msg")
            assert fast._inner._impl is not None

    def test_mac_accepts_memoryview(self):
        keyed = HMAC(b"key")
        assert keyed.mac(memoryview(b"payload")) == keyed.mac(b"payload")


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=300))
def test_sha1_matches_hashlib(data):
    import hashlib

    assert sha1(data) == hashlib.sha1(data).digest()


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=300))
def test_md5_matches_hashlib(data):
    import hashlib

    assert md5(data) == hashlib.md5(data).digest()


@settings(max_examples=25, deadline=None)
@given(key=st.binary(max_size=100), data=st.binary(max_size=200))
def test_hmac_matches_stdlib(key, data):
    import hashlib
    import hmac as stdlib_hmac

    assert hmac(key, data) == stdlib_hmac.new(
        key, data, hashlib.sha1).digest()
