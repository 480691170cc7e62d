"""AES: FIPS 197 known answers, S-box structure, instrumentation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AES,
    INV_SBOX,
    SBOX,
    _gf_mul,
    _key_expansion_words,
    key_expansion,
)
from repro.crypto.errors import InvalidBlockSize, InvalidKeyLength
from repro.crypto.trace import TraceRecorder

FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestKnownAnswers:
    """FIPS 197 Appendix C vectors for all three key sizes."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f")
        ct = AES(key).encrypt_block(FIPS_PT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_appendix_b_vector(self):
        # FIPS 197 Appendix B worked example.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert AES(key).encrypt_block(pt).hex() == \
            "3925841d02dc09fbdc118597196a0b32"

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_decrypt_inverts(self, size):
        key = bytes(range(size))
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(FIPS_PT)) == FIPS_PT


class TestSBox:
    def test_known_entries(self):
        # Spot values straight from the FIPS 197 table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_bijection(self):
        assert sorted(SBOX) == list(range(256))

    def test_matches_the_power_construction(self):
        # FIPS 197 5.1.1 written out the slow way: the inverse as a^254,
        # then the affine map b ^ rotl(b, 1..4) ^ 0x63.
        def rotl(b, n):
            return ((b << n) | (b >> (8 - n))) & 0xFF

        expected = []
        for value in range(256):
            inv = 0
            if value:
                inv = 1
                for _ in range(254):
                    inv = _gf_mul(inv, value)
            expected.append(inv ^ rotl(inv, 1) ^ rotl(inv, 2) ^ rotl(inv, 3)
                            ^ rotl(inv, 4) ^ 0x63)
        assert SBOX == expected
        assert INV_SBOX == [expected.index(s) for s in range(256)]

    def test_inverse_consistency(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value

    def test_no_fixed_points(self):
        # AES S-box has no fixed points and no 'anti-fixed' points.
        assert all(SBOX[v] != v for v in range(256))
        assert all(SBOX[v] != (v ^ 0xFF) for v in range(256))


class TestKeyExpansion:
    def test_round_counts(self):
        assert len(key_expansion(bytes(16))) == 11
        assert len(key_expansion(bytes(24))) == 13
        assert len(key_expansion(bytes(32))) == 15

    def test_fips_first_expanded_word(self):
        # FIPS 197 A.1: key 2b7e1516... -> w[4] = a0fafe17.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        rounds = key_expansion(key)
        assert rounds[1][0] == 0xA0FAFE17

    def test_invalid_key_length(self):
        with pytest.raises(InvalidKeyLength):
            key_expansion(bytes(15))

    def test_aes128_step_matches_the_word_loop(self):
        # The one-round-key-per-step AES-128 expansion against the FIPS
        # 197 word-at-a-time loop it replaces for 16-byte keys.
        rng = random.Random(197)
        keys = [bytes(16), b"\xff" * 16] + [
            rng.randbytes(16) for _ in range(200)]
        for key in keys:
            assert key_expansion(key) == _key_expansion_words(key)


class TestErrors:
    def test_bad_block_size(self):
        with pytest.raises(InvalidBlockSize):
            AES(bytes(16)).encrypt_block(bytes(15))
        with pytest.raises(InvalidBlockSize):
            AES(bytes(16)).decrypt_block(bytes(17))


class TestInstrumentation:
    def test_probe_labels_and_counts(self):
        recorder = TraceRecorder()
        AES(bytes(16), recorder).encrypt_block(bytes(16))
        by_label = recorder.by_label()
        assert len(by_label["aes.sbox_out"]) == 16        # round 1 only
        assert len(by_label["aes.round_out"]) == 9        # rounds 1..9

    def test_probe_indices_cover_state(self):
        recorder = TraceRecorder()
        AES(bytes(16), recorder).encrypt_block(bytes(16))
        indices = {s.index for s in recorder.by_label()["aes.sbox_out"]}
        assert indices == set(range(16))


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=10, deadline=None)
@given(key=st.binary(min_size=32, max_size=32),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
