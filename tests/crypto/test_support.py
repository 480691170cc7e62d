"""Bitops, CRC-32, padding, modes, RNG, registry, trace recorder."""

import warnings
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.bitops import (
    bytes_to_int,
    constant_time_compare,
    hamming_distance,
    hamming_weight,
    int_to_bytes,
    iter_bits_msb,
    permute_bits,
    rotl16,
    rotl32,
    rotr16,
    rotr32,
    split_blocks,
    xor_bytes,
)
from repro.crypto.crc import crc32, crc32_bytes, crc32_combine_xor
from repro.crypto.des import DES
from repro.crypto.errors import (
    InvalidBlockSize,
    PaddingError,
    ParameterError,
    RandomnessError,
)
from repro.crypto.hmac import hmac
from repro.crypto.modes import CBC, CTR, ECB
from repro.crypto.padding import esp_pad, esp_unpad, pkcs7_pad, pkcs7_unpad
from repro.crypto.registry import (
    UnknownAlgorithm,
    aes_rollout,
    default_registry,
)
from repro.crypto.rng import DeterministicDRBG, HardwareTRNG
from repro.crypto.sha1 import sha1
from repro.crypto.trace import TraceRecorder


class TestBitops:
    def test_rotations(self):
        assert rotl32(0x80000000, 1) == 1
        assert rotr32(1, 1) == 0x80000000
        assert rotl32(0x12345678, 0) == 0x12345678
        assert rotl16(0x8000, 1) == 1
        assert rotr16(1, 1) == 0x8000

    def test_rotation_inverse(self):
        for amount in range(33):
            assert rotr32(rotl32(0xDEADBEEF, amount), amount) == 0xDEADBEEF

    def test_int_bytes_roundtrip(self):
        assert bytes_to_int(int_to_bytes(123456, 4)) == 123456

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        with pytest.raises(ValueError):
            xor_bytes(b"a", b"ab")

    def test_permute_identity(self):
        identity = tuple(range(1, 9))
        assert permute_bits(0xA5, identity, 8) == 0xA5

    def test_permute_reverse(self):
        reverse = tuple(range(8, 0, -1))
        assert permute_bits(0b10000000, reverse, 8) == 0b00000001

    def test_hamming(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(0xFF) == 8
        assert hamming_distance(0b1010, 0b0101) == 4

    def test_split_blocks(self):
        assert split_blocks(b"abcdefgh", 4) == [b"abcd", b"efgh"]
        with pytest.raises(ValueError):
            split_blocks(b"abcde", 4)

    def test_iter_bits_msb(self):
        assert list(iter_bits_msb(0b101, 3)) == [1, 0, 1]

    def test_constant_time_compare(self):
        assert constant_time_compare(b"same", b"same")
        assert not constant_time_compare(b"same", b"diff")
        assert not constant_time_compare(b"short", b"longer")


class TestCRC:
    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_little_endian_encoding(self):
        assert crc32_bytes(b"x") == zlib.crc32(b"x").to_bytes(4, "little")

    @settings(max_examples=30, deadline=None)
    @given(a=st.binary(min_size=5, max_size=40))
    def test_linearity(self, a):
        b = bytes(len(a))  # same length zero message
        delta = bytes((x + 1) % 256 for x in a)
        xored = bytes(x ^ d for x, d in zip(a, delta))
        assert crc32(xored) == crc32_combine_xor(
            crc32(a), crc32(delta), crc32(b))


class TestPadding:
    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=100),
           block=st.integers(min_value=1, max_value=32))
    def test_pkcs7_roundtrip(self, data, block):
        assert pkcs7_unpad(pkcs7_pad(data, block), block) == data

    def test_pkcs7_always_pads(self):
        assert len(pkcs7_pad(b"12345678", 8)) == 16

    def test_pkcs7_rejects_bad_padding(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"AAAAAAA\x05", 8)
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"AAAAAAA\x00", 8)
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"", 8)

    def test_pkcs7_block_size_limits(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", 0)
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", 256)

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=100),
           block=st.integers(min_value=2, max_value=32))
    def test_esp_roundtrip(self, data, block):
        padded = esp_pad(data, block)
        assert len(padded) % block == 0
        assert esp_unpad(padded) == data

    def test_esp_rejects_tamper(self):
        padded = bytearray(esp_pad(b"payload", 8))
        if padded[-1] > 0:
            padded[-2] ^= 0xFF
            with pytest.raises(PaddingError):
                esp_unpad(bytes(padded))

    def test_esp_rejects_overlong_length(self):
        with pytest.raises(PaddingError):
            esp_unpad(b"\xff")


class TestModes:
    def test_ecb_known_structure(self):
        cipher = AES(bytes(16))
        double = ECB(cipher).encrypt(bytes(32))
        assert double[:16] == double[16:]  # ECB leaks equal blocks

    def test_cbc_hides_equal_blocks(self):
        cbc = CBC(AES(bytes(16)), bytes(16))
        ct = cbc.encrypt(bytes(32))
        assert ct[:16] != ct[16:32]

    def test_cbc_roundtrip_des(self):
        iv = bytes(range(8))
        data = b"some arbitrary-length plaintext.."
        ct = CBC(DES(bytes(8)), iv).encrypt(data)
        assert CBC(DES(bytes(8)), iv).decrypt(ct) == data

    def test_cbc_iv_length_enforced(self):
        with pytest.raises(ParameterError):
            CBC(AES(bytes(16)), bytes(8))

    def test_cbc_ciphertext_alignment_enforced(self):
        with pytest.raises(InvalidBlockSize):
            CBC(AES(bytes(16)), bytes(16)).decrypt(b"odd-length-data")

    # Regressions: ragged input used to escape as a bare ValueError from
    # split_blocks instead of the CryptoError the errors contract promises.
    def test_cbc_unpadded_encrypt_alignment_enforced(self):
        with pytest.raises(InvalidBlockSize):
            CBC(AES(bytes(16)), bytes(16)).encrypt(b"odd-length-data", pad=False)

    def test_ecb_encrypt_alignment_enforced(self):
        with pytest.raises(InvalidBlockSize):
            ECB(DES(bytes(8))).encrypt(b"odd-len")

    def test_ecb_decrypt_alignment_enforced(self):
        with pytest.raises(InvalidBlockSize):
            ECB(AES(bytes(16))).decrypt(b"odd-length-data")

    def test_cbc_empty_ciphertext_is_padding_error(self):
        # Regression: used to raise a misleading InvalidBlockSize —
        # b"" *is* block-aligned; what's wrong is the missing padding.
        with pytest.raises(PaddingError, match="empty ciphertext"):
            CBC(AES(bytes(16)), bytes(16)).decrypt(b"")

    def test_cbc_empty_ciphertext_ok_without_padding(self):
        assert CBC(AES(bytes(16)), bytes(16)).decrypt(b"", pad=False) == b""

    # Regressions: an empty or short residue used to become the next IV,
    # so the following chained call failed with a bare ValueError.
    def test_cbc_empty_chained_ciphertext_leaves_the_chain_unchanged(self):
        key, iv = bytes(range(16)), bytes(range(16, 32))
        sender = CBC(AES(key), iv)
        first = sender.encrypt_next(b"first record")
        second = sender.encrypt_next(b"second record")
        receiver = CBC(AES(key), iv)
        assert receiver.decrypt_next(first) == b"first record"
        assert receiver.decrypt_next(b"", pad=False) == b""
        assert receiver.iv == first[-16:]
        assert receiver.decrypt_next(second) == b"second record"

    def test_cbc_short_residue_is_invalid_block_size(self):
        cbc = CBC(AES(bytes(16)), bytes(16))
        with pytest.raises(InvalidBlockSize):
            cbc.commit_residue(b"short")
        assert cbc.iv == bytes(16)

    def test_cbc_iv_reuse_warns(self):
        cbc = CBC(AES(bytes(16)), bytes(16))
        cbc.encrypt(b"first message...")
        with pytest.warns(RuntimeWarning, match="reusing the IV"):
            cbc.encrypt(b"second message..")

    def test_cbc_rejected_encrypt_leaves_the_iv_unused(self):
        # Regression: a ragged plaintext raised InvalidBlockSize but still
        # marked the IV consumed, so the first real encryption warned.
        cbc = CBC(AES(bytes(16)), bytes(16))
        with pytest.raises(InvalidBlockSize):
            cbc.encrypt(b"x" * 5, pad=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cbc.encrypt(b"y" * 16, pad=False)

    def test_ctr_stream_roundtrip(self):
        data = b"counter mode handles ragged lengths"
        a = CTR(AES(bytes(16)), bytes(16))
        b = CTR(AES(bytes(16)), bytes(16))
        assert b.process(a.process(data)) == data

    def test_ctr_nonce_length_enforced(self):
        with pytest.raises(ParameterError):
            CTR(AES(bytes(16)), bytes(4))

    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(max_size=200), key=st.binary(min_size=16,
                                                       max_size=16))
    def test_cbc_roundtrip_property(self, data, key):
        iv = bytes(16)
        assert CBC(AES(key), iv).decrypt(CBC(AES(key), iv).encrypt(data)) \
            == data


class TestDRBG:
    def test_deterministic(self):
        assert DeterministicDRBG(7).random_bytes(32) == \
            DeterministicDRBG(7).random_bytes(32)

    def test_seed_types(self):
        for seed in (42, b"bytes", "string"):
            assert len(DeterministicDRBG(seed).random_bytes(8)) == 8

    def test_randrange_bounds(self):
        rng = DeterministicDRBG(1)
        values = [rng.randrange(10, 20) for _ in range(200)]
        assert all(10 <= v < 20 for v in values)
        assert len(set(values)) > 5

    def test_randrange_empty(self):
        with pytest.raises(ValueError):
            DeterministicDRBG(1).randrange(5, 5)

    def test_getrandbits_width(self):
        rng = DeterministicDRBG(2)
        assert all(rng.getrandbits(13) < (1 << 13) for _ in range(100))
        assert rng.getrandbits(0) == 0

    def test_nonzero_bytes(self):
        data = DeterministicDRBG(3).nonzero_bytes(500)
        assert len(data) == 500
        assert 0 not in data

    def test_nonzero_bytes_is_the_stream_minus_zero_octets(self):
        stream = DeterministicDRBG(3).random_bytes(2000)
        assert DeterministicDRBG(3).nonzero_bytes(500) == \
            stream.replace(b"\x00", b"")[:500]

    def test_stream_is_hmac_of_the_counter_however_it_is_cut(self):
        # block_i = HMAC-SHA1(SHA1("repro-drbg:" || seed), i as 8 bytes),
        # whatever the request sizes that consume the blocks.
        key = sha1(b"repro-drbg:" + b"cut")
        stream = b"".join(hmac(key, i.to_bytes(8, "big")) for i in range(40))
        rng = DeterministicDRBG(b"cut")
        pieces = [rng.random_bytes(size)
                  for size in (0, 1, 19, 20, 21, 0, 40, 7, 64, 3, 200)]
        joined = b"".join(pieces)
        assert joined == stream[:len(joined)]
        assert [len(piece) for piece in pieces] == \
            [0, 1, 19, 20, 21, 0, 40, 7, 64, 3, 200]

    def test_shuffle_permutes(self):
        rng = DeterministicDRBG(4)
        items = list(range(20))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_gauss_moments(self):
        rng = DeterministicDRBG(5)
        samples = [rng.gauss(0.0, 1.0) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean) < 0.1
        assert 0.8 < var < 1.2


class TestTRNG:
    def test_healthy_source_produces(self):
        trng = HardwareTRNG(seed=1, bias=0.5)
        data = trng.random_bytes(64)
        assert len(data) == 64

    def test_output_not_obviously_biased(self):
        trng = HardwareTRNG(seed=2, bias=0.5)
        data = trng.random_bytes(512)
        ones = sum(bin(b).count("1") for b in data)
        assert 0.45 < ones / (8 * 512) < 0.55

    def test_debiasing_handles_moderate_bias(self):
        trng = HardwareTRNG(seed=3, bias=0.6)
        data = trng.random_bytes(256)
        ones = sum(bin(b).count("1") for b in data)
        assert 0.45 < ones / (8 * 256) < 0.55  # von Neumann removed bias

    def test_health_test_rejects_stuck_source(self):
        trng = HardwareTRNG(seed=4, bias=0.98)
        with pytest.raises(RandomnessError):
            trng.random_bytes(8)
        assert trng.health_failures == 1

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            HardwareTRNG(bias=1.5)


class TestRegistry:
    def test_2003_baseline(self):
        registry = default_registry()
        assert "3DES" in registry
        assert "RC4" in registry
        assert "AES" not in registry

    def test_aes_rollout(self):
        registry = default_registry()
        aes_rollout(registry)
        info = registry.get("AES")
        assert info.year_introduced == 2001
        cipher = registry.instantiate("AES", bytes(16))
        assert cipher.encrypt_block(bytes(16))

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            default_registry().get("IDEA")

    def test_deprecate(self):
        registry = default_registry()
        registry.deprecate("RC4")
        assert registry.get("RC4").deprecated
        assert "RC4" not in registry.names("stream", include_deprecated=False)

    def test_deprecate_round_trips_every_field(self):
        # Regression: deprecate() used to rebuild AlgorithmInfo by
        # naming fields explicitly, silently dropping any field added
        # later (notes, and whatever comes next).
        import dataclasses

        registry = default_registry()
        before = registry.get("3DES")
        assert before.notes  # the baseline entry carries real metadata
        registry.deprecate("3DES")
        after = registry.get("3DES")
        assert after.deprecated
        for fld in dataclasses.fields(after):
            if fld.name == "deprecated":
                continue
            assert getattr(after, fld.name) == getattr(before, fld.name), fld.name

    def test_kind_filter(self):
        registry = default_registry()
        assert registry.names("hash") == ["MD5", "SHA1"]

    def test_instantiate_hash(self):
        registry = default_registry()
        hasher = registry.instantiate("SHA1")
        assert hasher.update(b"abc").digest().hex().startswith("a9993e36")


class TestTraceRecorder:
    def test_noiseless_power_is_hamming_weight(self):
        recorder = TraceRecorder()
        recorder.record("probe", 0, 0xFF)
        assert recorder.samples[0].power == 8.0

    def test_noise_reproducible(self):
        a = TraceRecorder(noise_sigma=1.0, seed=9)
        b = TraceRecorder(noise_sigma=1.0, seed=9)
        for recorder in (a, b):
            recorder.record("p", 0, 0x0F)
        assert a.samples[0].power == b.samples[0].power

    def test_label_filter(self):
        recorder = TraceRecorder(enabled_labels=frozenset({"keep"}))
        recorder.record("keep", 0, 1)
        recorder.record("drop", 0, 1)
        assert len(recorder) == 1

    def test_grouping_and_totals(self):
        recorder = TraceRecorder()
        recorder.record("a", 0, 0b11)
        recorder.record("b", 0, 0b1)
        assert recorder.total_power() == 3.0
        assert set(recorder.by_label()) == {"a", "b"}
        recorder.clear()
        assert len(recorder) == 0
