"""Fast-path ≡ reference equivalence: KATs, differentials, fallback.

Every known-answer vector runs through *both* the precomputed-table
fast path and the readable reference loops, and a randomized
differential sweep pins the two bit-for-bit.  The TraceRecorder
fallback rule (probed ciphers always take the reference path) is
asserted explicitly — it is what keeps the DPA/timing simulators
honest.
"""

import gc
import random
import struct
import tracemalloc

import pytest

from repro.crypto import fastpath
from repro.crypto import aes as aes_module
from repro.crypto import des as des_module
from repro.crypto.aes import AES, _inv_mix_columns, key_expansion
from repro.crypto.bitops import bytes_to_int, int_to_bytes, permute_bits, xor_bytes
from repro.crypto.des import (
    DES,
    _E,
    _FP,
    _IP,
    _P,
    _PC1,
    _PC2,
    _SBOXES,
    _crypt_block,
    expand_key,
)
from repro.crypto.errors import InvalidBlockSize
from repro.crypto.hmac import hmac
from repro.crypto.md5 import MD5, md5
from repro.crypto.modes import CBC, CTR, ECB
from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.tdes import TripleDES
from repro.crypto.trace import TraceRecorder

FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


@pytest.fixture(params=["reference", "fast"])
def path(request):
    """Run the decorated test once per implementation path."""
    with fastpath.force(request.param == "fast"):
        yield request.param


class TestAESKnownAnswers:
    """FIPS 197 Appendix C, all three key sizes, both paths."""

    VECTORS = [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ]

    @pytest.mark.parametrize("key_hex,ct_hex", VECTORS)
    def test_encrypt(self, path, key_hex, ct_hex):
        assert AES(bytes.fromhex(key_hex)).encrypt_block(FIPS_PT).hex() == ct_hex

    @pytest.mark.parametrize("key_hex,ct_hex", VECTORS)
    def test_decrypt(self, path, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(ct_hex)) == FIPS_PT


class TestDESKnownAnswers:
    def test_fips_46_3_vector(self, path):
        cipher = DES(bytes.fromhex("133457799BBCDFF1"))
        ct = cipher.encrypt_block(bytes.fromhex("0123456789ABCDEF"))
        assert ct.hex().upper() == "85E813540F0AB405"
        assert cipher.decrypt_block(ct).hex().upper() == "0123456789ABCDEF"

    def test_3des_degenerate_single_des(self, path):
        block = bytes(range(8))
        key = bytes.fromhex("133457799BBCDFF1")
        assert TripleDES(key).encrypt_block(block) == DES(key).encrypt_block(block)


class TestHashKnownAnswers:
    def test_sha1(self, path):
        assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_md5(self, path):
        assert md5(b"abc").hex() == "900150983cd24fb0d6963f7d28e17f72"


class TestHMACRFC2202:
    """RFC 2202 vectors through both hash paths."""

    SHA1_VECTORS = [
        (b"\x0b" * 20, b"Hi There",
         "b617318655057264e28bc0b6fb378c8ef146be00"),
        (b"Jefe", b"what do ya want for nothing?",
         "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
        (b"\xaa" * 20, b"\xdd" * 50,
         "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
        (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
         "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    ]

    MD5_VECTORS = [
        (b"\x0b" * 16, b"Hi There", "9294727a3638bb1c13f48ef8158bfc9d"),
        (b"Jefe", b"what do ya want for nothing?",
         "750c783e6ab0b503eaa86e310a5db738"),
        (b"\xaa" * 16, b"\xdd" * 50, "56be34521d144c88dbb8c733f0e8b3f6"),
        (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
         "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"),
    ]

    @pytest.mark.parametrize("key,message,tag", SHA1_VECTORS)
    def test_hmac_sha1(self, path, key, message, tag):
        assert hmac(key, message, SHA1).hex() == tag

    @pytest.mark.parametrize("key,message,tag", MD5_VECTORS)
    def test_hmac_md5(self, path, key, message, tag):
        assert hmac(key, message, MD5).hex() == tag


class TestDifferential:
    """Randomized reference ≡ fast-path sweeps (fixed seed)."""

    def test_aes_blocks(self):
        rng = random.Random(0xA15)
        for key_size in (16, 24, 32):
            for _ in range(8):
                key = bytes(rng.randrange(256) for _ in range(key_size))
                block = bytes(rng.randrange(256) for _ in range(16))
                with fastpath.force(False):
                    ref_ct = AES(key).encrypt_block(block)
                    ref_pt = AES(key).decrypt_block(block)
                with fastpath.force(True):
                    assert AES(key).encrypt_block(block) == ref_ct
                    assert AES(key).decrypt_block(block) == ref_pt

    def test_des_and_3des_blocks(self):
        rng = random.Random(0xDE5)
        for _ in range(12):
            key = bytes(rng.randrange(256) for _ in range(8))
            key24 = bytes(rng.randrange(256) for _ in range(24))
            block = bytes(rng.randrange(256) for _ in range(8))
            with fastpath.force(False):
                ref = (DES(key).encrypt_block(block),
                       DES(key).decrypt_block(block),
                       TripleDES(key24).encrypt_block(block),
                       TripleDES(key24).decrypt_block(block),
                       expand_key(key))
            with fastpath.force(True):
                assert DES(key).encrypt_block(block) == ref[0]
                assert DES(key).decrypt_block(block) == ref[1]
                assert TripleDES(key24).encrypt_block(block) == ref[2]
                assert TripleDES(key24).decrypt_block(block) == ref[3]
                assert expand_key(key) == ref[4]

    def test_hashes_and_hmac(self):
        rng = random.Random(0x5A1)
        for length in (0, 1, 55, 56, 63, 64, 65, 127, 500):
            data = bytes(rng.randrange(256) for _ in range(length))
            key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 100)))
            with fastpath.force(False):
                ref = (sha1(data), md5(data), hmac(key, data, SHA1),
                       hmac(key, data, MD5))
            with fastpath.force(True):
                assert sha1(data) == ref[0]
                assert md5(data) == ref[1]
                assert hmac(key, data, SHA1) == ref[2]
                assert hmac(key, data, MD5) == ref[3]

    def test_incremental_hash_copy_semantics(self, path):
        hasher = SHA1(b"prefix")
        clone = hasher.copy()
        hasher.update(b"-suffix")
        assert clone.digest() == sha1(b"prefix")
        assert hasher.digest() == sha1(b"prefix-suffix")

    def test_modes_roundtrip_both_paths(self):
        rng = random.Random(0xC8C)
        key = bytes(rng.randrange(256) for _ in range(16))
        iv = bytes(rng.randrange(256) for _ in range(16))
        data = bytes(rng.randrange(256) for _ in range(100))
        with fastpath.force(False):
            ref_cbc = CBC(AES(key), iv).encrypt(data)
            ref_ecb = ECB(AES(key)).encrypt(bytes(32))
            ref_ctr = CTR(AES(key), iv).process(data)
        with fastpath.force(True):
            assert CBC(AES(key), iv).encrypt(data) == ref_cbc
            assert CBC(AES(key), iv).decrypt(ref_cbc) == data
            assert ECB(AES(key)).encrypt(bytes(32)) == ref_ecb
            assert CTR(AES(key), iv).process(data) == ref_ctr


class TestDESTableFusion:
    """The per-byte tables are exactly the FIPS permutations."""

    @pytest.mark.parametrize("table,width", [
        (_IP, 64), (_FP, 64), (_E, 32), (_PC1, 64), (_PC2, 56),
        (_P, 32),
    ])
    def test_byte_tables_match_permute_bits(self, table, width):
        lookup = fastpath.byte_permutation_tables(table, width)
        rng = random.Random(width)
        values = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(50)]
        for value in values:
            expected = permute_bits(value, table, width)
            got = 0
            for i, chunk in enumerate(lookup):
                got |= chunk[(value >> (width - 8 * (i + 1))) & 255]
            assert got == expected

    def test_rejects_partial_bytes(self):
        with pytest.raises(ValueError):
            fastpath.byte_permutation_tables(_E, 31)

    def test_pair_tables_share_256_values(self):
        # Naive construction: E(P(·)) of each box's output at its 6-bit
        # input, and a pair entry is the XOR of its two boxes' entries.
        boxes = [[permute_bits(permute_bits(
            _SBOXES[box][((six >> 4) & 0b10) | (six & 1)][(six >> 1) & 0xF]
            << (28 - 4 * box), _P, 32), _E, 32) for six in range(64)]
            for box in range(8)]
        tables = fastpath._des_tables()["spe"]
        assert len(tables) == 4
        for j, table in enumerate(tables):
            assert table == [hi ^ lo for hi in boxes[2 * j]
                             for lo in boxes[2 * j + 1]]
            assert len({id(value) for value in table}) == 256


class TestTraceRecorderFallback:
    """Probed ciphers must take the reference path (true intermediates)."""

    def test_aes_probes_present_and_ciphertext_identical(self):
        key, block = bytes(range(16)), bytes(range(16))
        recorder = TraceRecorder()
        with fastpath.force(True):
            probed_ct = AES(key, recorder).encrypt_block(block)
            plain_ct = AES(key).encrypt_block(block)
        by_label = recorder.by_label()
        assert len(by_label["aes.sbox_out"]) == 16
        assert len(by_label["aes.round_out"]) == 9
        assert probed_ct == plain_ct

    def test_des_probes_present_and_ciphertext_identical(self):
        key, block = bytes(range(8)), bytes(range(8))
        recorder = TraceRecorder()
        with fastpath.force(True):
            probed_ct = DES(key, recorder).encrypt_block(block)
            plain_ct = DES(key).encrypt_block(block)
        assert len(recorder.by_label()["des.sbox_out"]) == 16 * 8
        assert probed_ct == plain_ct


class TestSwitch:
    def test_force_restores_prior_state(self):
        before = fastpath.enabled()
        with fastpath.force(not before):
            assert fastpath.enabled() is (not before)
        assert fastpath.enabled() is before

    def test_force_restores_on_exception(self):
        before = fastpath.enabled()
        with pytest.raises(RuntimeError):
            with fastpath.force(not before):
                raise RuntimeError("boom")
        assert fastpath.enabled() is before

    def test_enable_disable(self):
        before = fastpath.enabled()
        try:
            fastpath.disable()
            assert not fastpath.enabled()
            fastpath.enable()
            assert fastpath.enabled()
        finally:
            (fastpath.enable if before else fastpath.disable)()


class TestKeyScheduleCaching:
    def test_aes_fast_schedules_cached(self):
        with fastpath.force(True):
            cipher = AES(bytes(16))
            cipher.encrypt_block(bytes(16))
            enc_schedule = cipher._fast_enc
            cipher.encrypt_block(bytes(16))
            assert cipher._fast_enc is enc_schedule
            cipher.decrypt_block(bytes(16))
            dec_schedule = cipher._fast_dec
            cipher.decrypt_block(bytes(16))
            assert cipher._fast_dec is dec_schedule

    @pytest.mark.parametrize("factory", [lambda: DES(bytes(8)),
                                         lambda: TripleDES(bytes(range(24)))])
    def test_des_family_kernel_schedules_cached(self, factory):
        with fastpath.force(True):
            cipher = factory()
            assert cipher._schedule(False) is cipher._schedule(False)
            assert cipher._schedule(True) is cipher._schedule(True)
            assert cipher._schedule(True) is not cipher._schedule(False)

    def test_des_reverse_schedule_cached(self):
        cipher = DES(bytes(8))
        assert cipher._round_keys_dec == list(reversed(cipher._round_keys))
        first = cipher._round_keys_dec
        cipher.decrypt_block(bytes(8))
        assert cipher._round_keys_dec is first

    def test_int_xor_bytes_matches_loop(self):
        rng = random.Random(7)
        for length in (0, 1, 7, 16, 100):
            a = bytes(rng.randrange(256) for _ in range(length))
            b = bytes(rng.randrange(256) for _ in range(length))
            assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestOnePassEDE:
    """One 48-key kernel call ≡ three chained reference DES passes."""

    WEAK_KEYS = [bytes.fromhex(k) for k in (
        "0101010101010101", "FEFEFEFEFEFEFEFE",
        "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E",
    )]

    @staticmethod
    def _keys():
        rng = random.Random(0x3DE5)
        keys = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(9)]
        keys += TestOnePassEDE.WEAK_KEYS
        for i, k1 in enumerate(keys):
            k2, k3 = keys[(i + 1) % len(keys)], keys[(i + 2) % len(keys)]
            yield k1                 # 1-key: degenerate single DES
            yield k1 + k2            # 2-key: K1, K2, K1
            yield k1 + k2 + k3       # 3-key

    @staticmethod
    def _schedules(key):
        # K1 ‖ K2 ‖ K3 for every keying option: 8-byte keys repeat K1,
        # 16-byte keys wrap back to K1 for K3.
        triple = (key * 3)[:24]
        return [expand_key(triple[i:i + 8]) for i in (0, 8, 16)]

    @staticmethod
    def _reference_ede(block, s1, s2, s3, decrypt):
        if decrypt:
            s1, s3 = s3, s1
            passes = (s1[::-1], s2, s3[::-1])
        else:
            passes = (s1, s2[::-1], s3)
        for schedule in passes:
            block = _crypt_block(block, schedule, None)
        return block

    @pytest.mark.parametrize("flag", [False, True], ids=["reference", "fast"])
    def test_kernel_and_cipher_match_chained_reference(self, flag):
        rng = random.Random(0xEDE)
        for key in self._keys():
            s1, s2, s3 = self._schedules(key)
            enc48 = s1 + s2[::-1] + s3
            dec48 = s3[::-1] + s2 + s1[::-1]
            block = bytes(rng.randrange(256) for _ in range(8))
            value = bytes_to_int(block)
            expected_ct = self._reference_ede(value, s1, s2, s3, decrypt=False)
            expected_pt = self._reference_ede(value, s1, s2, s3, decrypt=True)
            assert fastpath.des_crypt_block(value, enc48) == expected_ct
            assert fastpath.des_crypt_block(value, dec48) == expected_pt
            with fastpath.force(flag):
                cipher = TripleDES(key)
                assert cipher.encrypt_block(block) == int_to_bytes(expected_ct, 8)
                assert cipher.decrypt_block(block) == int_to_bytes(expected_pt, 8)


def test_des_crypt_block_int_api():
    # The int-level kernel used by 3DES fusion round-trips directly.
    key = bytes.fromhex("133457799BBCDFF1")
    keys = expand_key(key)
    block = 0x0123456789ABCDEF
    ct = fastpath.des_crypt_block(block, keys)
    assert int_to_bytes(ct, 8).hex().upper() == "85E813540F0AB405"
    assert fastpath.des_crypt_block(ct, list(reversed(keys))) == block
    assert bytes_to_int(int_to_bytes(ct, 8)) == ct


def _reference_cbc(cipher, iv, data, decrypt):
    """CBC chained by hand over the reference per-block loops."""
    out, previous = [], iv
    with fastpath.force(False):
        for i in range(0, len(data), cipher.block_size):
            block = bytes(data[i:i + cipher.block_size])
            if decrypt:
                out.append(xor_bytes(cipher.decrypt_block(block), previous))
                previous = block
            else:
                previous = cipher.encrypt_block(xor_bytes(block, previous))
                out.append(previous)
    return b"".join(out)


def _record_kernel_ciphers():
    rng = random.Random(0xCBC)
    k1, k2, k3 = (bytes(rng.randrange(256) for _ in range(8)) for _ in range(3))
    ciphers = [("DES", DES, k1)]
    ciphers += [(f"3DES-{len(k)}", TripleDES, k) for k in (k2, k2 + k3, k1 + k2 + k3)]
    ciphers += [(f"3DES-weak-{k.hex()}", TripleDES, k + k1 + k)
                for k in TestOnePassEDE.WEAK_KEYS]
    ciphers += [(f"AES-{8 * n}", AES, bytes(rng.randrange(256) for _ in range(n)))
                for n in (16, 24, 32)]
    return ciphers


class TestCBCRecordKernel:
    """One record-kernel call ≡ the chained reference blocks, both paths."""

    CIPHERS = _record_kernel_ciphers()
    BLOCKS = [0, 1, 7, "1KiB"]

    _expected = {}

    @classmethod
    def _case(cls, factory, key, blocks):
        """``(cipher, iv, plaintext, reference ciphertext)``; the
        reference chain is computed once per case, not once per path."""
        cipher = factory(key)
        size = cipher.block_size
        rng = random.Random(len(key) * 1000 + size)
        length = 1024 if blocks == "1KiB" else blocks * size
        iv = bytes(rng.randrange(256) for _ in range(size))
        data = bytes(rng.randrange(256) for _ in range(length))
        if (key, blocks) not in cls._expected:
            cls._expected[key, blocks] = _reference_cbc(cipher, iv, data,
                                                        decrypt=False)
        return cipher, iv, data, cls._expected[key, blocks]

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("name,factory,key", CIPHERS,
                             ids=[c[0] for c in CIPHERS])
    def test_record_matches_chained_reference_blocks(self, path, name,
                                                     factory, key, blocks):
        cipher, iv, data, ct = self._case(factory, key, blocks)
        assert CBC(cipher, iv).encrypt(data, pad=False) == ct
        # The TLS decoder hands the mode memoryview slices of its buffer.
        assert CBC(cipher, iv).decrypt(memoryview(ct), pad=False) == data

    @pytest.mark.parametrize("name,factory,key", CIPHERS,
                             ids=[c[0] for c in CIPHERS])
    def test_kernel_takes_int_iv_and_memoryview(self, name, factory, key):
        cipher, iv, data, ct = self._case(factory, key, 7)
        iv_int = int.from_bytes(iv, "big")
        assert cipher.cbc_encrypt(memoryview(data), iv_int) == ct
        assert cipher.cbc_decrypt(memoryview(ct), iv_int) == data

    @pytest.mark.parametrize("name,factory,key", CIPHERS,
                             ids=[c[0] for c in CIPHERS])
    def test_residue_chaining_across_three_records(self, path, name, factory,
                                                   key):
        cipher, iv, data, ct = self._case(factory, key, 7)
        size = cipher.block_size
        records = [data[:3 * size], data[3 * size:4 * size], data[4 * size:]]
        sender, receiver = CBC(cipher, iv), CBC(cipher, iv)
        sealed = [sender.encrypt_next(r, pad=False) for r in records]
        assert b"".join(sealed) == ct
        assert sender.iv == sealed[-1][-size:]
        assert [receiver.decrypt_next(memoryview(c), pad=False)
                for c in sealed] == records
        assert receiver.iv == sender.iv

    @pytest.mark.parametrize("name,factory,key", CIPHERS,
                             ids=[c[0] for c in CIPHERS])
    def test_ragged_input_raises_and_leaves_the_iv(self, path, name, factory,
                                                   key):
        cipher, iv, data, _ = self._case(factory, key, 1)
        cbc = CBC(cipher, iv)
        for call in (cbc.encrypt_next, cbc.decrypt_next, cbc.decrypt):
            with pytest.raises(InvalidBlockSize):
                call(data + b"x", pad=False)
            assert cbc.iv == iv

    def test_recorder_still_records_every_block_through_cbc(self):
        recorder = TraceRecorder()
        key, iv, data = bytes(range(8)), bytes(8), bytes(range(40))
        with fastpath.force(True):
            probed = CBC(DES(key, recorder), iv).encrypt(data)
            plain = CBC(DES(key), iv).encrypt(data)
        assert probed == plain
        # 40 bytes pad to 6 blocks; 16 rounds of 8 S-boxes each.
        assert len(recorder.by_label()["des.sbox_out"]) == 6 * 16 * 8


_KERNEL_ONLY = pytest.mark.skipif(
    not fastpath.enabled(),
    reason="checks a fast-path kernel alone; REPRO_FASTPATH=0 runs the "
           "reference loops, which the differential tests cover")


class TestAESDecryptKernel:
    """The wide-int AES-CBC decryption kernel ≡ the reference
    ``decrypt_block`` chain, at sizes around its per-record masks."""

    BLOCKS = (1, 2, 3, 5, 64, 65, 1025)
    KEY_SIZES = [16, 24, 32]

    _expected = {}

    @classmethod
    def _case(cls, key_size):
        """``(cipher, [(iv, ciphertext, reference plaintext)])`` per
        record length; the reference chains run once per key size."""
        rng = random.Random(0xDEC + key_size)
        cipher = AES(bytes(rng.randrange(256) for _ in range(key_size)))
        if key_size not in cls._expected:
            records = []
            for blocks in cls.BLOCKS:
                iv = bytes(rng.randrange(256) for _ in range(16))
                ct = bytes(rng.randrange(256) for _ in range(16 * blocks))
                records.append((iv, ct, _reference_cbc(cipher, iv, ct,
                                                       decrypt=True)))
            cls._expected[key_size] = records
        return cipher, cls._expected[key_size]

    @_KERNEL_ONLY
    @pytest.mark.parametrize("key_hex,ct_hex", TestAESKnownAnswers.VECTORS,
                             ids=["C.1", "C.2", "C.3"])
    def test_fips_197_decrypts_through_cbc_decrypt(self, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.cbc_decrypt(bytes.fromhex(ct_hex), 0) == FIPS_PT

    @_KERNEL_ONLY
    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    @pytest.mark.parametrize("key_size", KEY_SIZES,
                             ids=lambda n: f"AES-{8 * n}")
    def test_records_match_the_reference_chain(self, key_size, wrap):
        cipher, records = self._case(key_size)
        for iv, ct, expected in records:
            assert cipher.cbc_decrypt(wrap(ct), int.from_bytes(iv, "big")) \
                == expected, len(ct) // 16

    @_KERNEL_ONLY
    def test_iv_changes_only_block_0(self):
        cipher, records = self._case(16)
        iv, ct, _ = records[3]
        from_zero = cipher.cbc_decrypt(ct, 0)
        from_iv = cipher.cbc_decrypt(ct, int.from_bytes(iv, "big"))
        assert from_iv[16:] == from_zero[16:]
        assert xor_bytes(from_iv[:16], from_zero[:16]) == iv

    @_KERNEL_ONLY
    @pytest.mark.parametrize("factory,key", [
        (AES, bytes(range(16))), (DES, bytes(range(8))),
        (TripleDES, bytes(range(24)))], ids=["AES", "DES", "3DES"])
    def test_empty_record_decrypts_to_nothing(self, factory, key):
        cipher = factory(key)
        assert cipher.cbc_decrypt(b"", (1 << 8 * cipher.block_size) - 1) == b""

    @_KERNEL_ONLY
    def test_every_record_length_leaves_at_most_1_kib(self):
        # The masks and repeated round keys depend on the record length;
        # a cache per length would keep kilobytes per length seen.
        cipher = AES(bytes(range(16)))
        data = memoryview(bytes(range(256)) * 65)
        cipher.cbc_decrypt(data[:16], 1)  # build the tables and schedule
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for blocks in range(1, 1026):
                cipher.cbc_decrypt(data[:16 * blocks], 1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1024, held


class TestAESEncryptKernel:
    """The T-table AES-CBC encryption loop keeps nothing per record
    length."""

    @_KERNEL_ONLY
    def test_new_record_lengths_leave_at_most_1_kib(self):
        # A ``struct`` format per record length would stay compiled in
        # struct's process-wide cache (up to 100 formats); clearing that
        # cache first makes every length below new to it.
        cipher = AES(bytes(range(16)))
        data = memoryview(bytes(range(256)) * 2)
        struct._clearcache()
        cipher.cbc_encrypt(data[:16], 1)  # build the tables and schedule
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for blocks in range(2, 26):
                cipher.cbc_encrypt(data[:16 * blocks], 1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1024, held


class TestDESDecryptKernel:
    """The wide-int DES/3DES-CBC decryption kernel ≡ the reference
    ``decrypt_block`` chain, at record lengths on both sides of
    :data:`~repro.crypto.fastpath.DES_WIDE_MIN_BLOCKS`."""

    BLOCKS = list(range(1, 41)) + [78, 130, 1025]
    #: Distinct ciphertext blocks; longer records repeat them, so a
    #: record's neighbouring lanes still differ.
    PERIOD = 130
    KEY = random.Random(0x3DE5).randbytes(24)
    CIPHERS = [("DES", DES, KEY[:8]), ("3DES-1key", TripleDES, KEY[:8]),
               ("3DES-2key", TripleDES, KEY[:16]),
               ("3DES-3key", TripleDES, KEY)]
    #: SP 800-67 Appendix B: K1 ‖ K2 ‖ K3, ECB plaintext and ciphertext.
    TDES_KAT = ("0123456789abcdef23456789abcdef01456789abcdef0123",
                b"The qufck brown fox jump",
                "a826fd8ce53b855fcce21c8112256fe668d5c05dd9b6b900")

    _expected = {}

    @classmethod
    def _case(cls, key):
        """``(iv, ciphertext, reference plaintext)`` of the longest record;
        a shorter record is a prefix of both.  ``decrypt_block`` runs
        once per distinct ciphertext block."""
        if key not in cls._expected:
            rng = random.Random(key)
            iv = bytes(rng.randrange(256) for _ in range(8))
            blocks = [bytes(rng.randrange(256) for _ in range(8))
                      for _ in range(cls.PERIOD)]
            record = b"".join(blocks) * -(-max(cls.BLOCKS) // cls.PERIOD)
            record = record[:8 * max(cls.BLOCKS)]
            cipher = (DES if len(key) == 8 else TripleDES)(key)
            with fastpath.force(False):
                plain = {block: cipher.decrypt_block(block) for block in blocks}
            chained = iv + record[:-8]
            cls._expected[key] = (iv, record, b"".join(
                xor_bytes(plain[record[i:i + 8]], chained[i:i + 8])
                for i in range(0, len(record), 8)))
        return cls._expected[key]

    @staticmethod
    def _ecb_as_cbc(ct, pt, blocks):
        """An ECB known answer as a zero-IV CBC record of ``blocks``
        blocks: the ciphertext repeated, plaintext i is P_i ^ C_(i-1)."""
        copies = -(-8 * blocks // len(ct))
        record = (ct * copies)[:8 * blocks]
        return record, xor_bytes((pt * copies)[:8 * blocks],
                                 bytes(8) + record[:-8])

    @_KERNEL_ONLY
    def test_fips_46_3_decrypts_through_cbc_decrypt(self):
        cipher = DES(bytes.fromhex("133457799BBCDFF1"))
        ct, pt = bytes.fromhex("85E813540F0AB405"), bytes.fromhex("0123456789ABCDEF")
        assert fastpath.des_cbc_decrypt(ct, 0, cipher._schedule(True)) == pt
        for blocks in (1, fastpath.DES_WIDE_MIN_BLOCKS, 40):
            record, expected = self._ecb_as_cbc(ct, pt, blocks)
            assert cipher.cbc_decrypt(record, 0) == expected, blocks

    @_KERNEL_ONLY
    def test_sp_800_67_3des_decrypts_through_cbc_decrypt(self):
        key_hex, pt, ct_hex = self.TDES_KAT
        cipher, ct = TripleDES(bytes.fromhex(key_hex)), bytes.fromhex(ct_hex)
        schedule = cipher._schedule(True)
        assert b"".join(fastpath.des_cbc_decrypt(ct[i:i + 8], 0, schedule)
                        for i in range(0, 24, 8)) == pt
        for blocks in (3, fastpath.DES_WIDE_MIN_BLOCKS, 40):
            record, expected = self._ecb_as_cbc(ct, pt, blocks)
            assert cipher.cbc_decrypt(record, 0) == expected, blocks

    @_KERNEL_ONLY
    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    @pytest.mark.parametrize("name,factory,key", CIPHERS,
                             ids=[c[0] for c in CIPHERS])
    def test_records_match_the_reference_chain(self, name, factory, key, wrap):
        iv, record, expected = self._case(key)
        cipher, iv_int = factory(key), int.from_bytes(iv, "big")
        for blocks in self.BLOCKS:
            assert cipher.cbc_decrypt(wrap(record[:8 * blocks]), iv_int) \
                == expected[:8 * blocks], blocks

    @_KERNEL_ONLY
    def test_iv_changes_only_block_0(self):
        iv, record, _ = self._case(self.KEY)
        cipher, record = TripleDES(self.KEY), record[:8 * 40]
        from_zero = cipher.cbc_decrypt(record, 0)
        from_iv = cipher.cbc_decrypt(record, int.from_bytes(iv, "big"))
        assert from_iv[8:] == from_zero[8:]
        assert xor_bytes(from_iv[:8], from_zero[:8]) == iv

    @_KERNEL_ONLY
    def test_every_record_length_leaves_at_most_1_kib(self):
        # The masks and repeated key words depend on the record length;
        # a cache per length would keep kilobytes per length seen.  DES
        # runs the same kernel as 3DES with a third of the rounds, and
        # tracing every allocation is what makes this test slow.
        cipher = DES(bytes(range(8)))
        data = memoryview(bytes(range(256)) * 33)
        cipher.cbc_decrypt(data[:8], 1)  # build the tables and schedule
        cipher.cbc_decrypt(data[:8 * fastpath.DES_WIDE_MIN_BLOCKS], 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for blocks in range(1, 1026):
                cipher.cbc_decrypt(data[:8 * blocks], 1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1024, held

    @_KERNEL_ONLY
    def test_only_a_long_des_decryption_builds_the_tables(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_DES_WIDE_TABLES", None)
        short = fastpath.DES_WIDE_MIN_BLOCKS - 1
        aes, tdes = AES(bytes(range(16))), TripleDES(bytes(range(24)))
        CBC(aes, bytes(16)).decrypt(CBC(aes, bytes(16)).encrypt(bytes(1024)))
        sealed = CBC(tdes, bytes(8)).encrypt(bytes(1024), pad=False)
        assert CBC(tdes, bytes(8)).decrypt(sealed[:8 * short], pad=False) \
            == bytes(8 * short)
        tdes.decrypt_block(sealed[:8])
        assert fastpath._DES_WIDE_TABLES is None
        assert CBC(tdes, bytes(8)).decrypt(sealed, pad=False) == bytes(1024)
        tables = fastpath._DES_WIDE_TABLES
        assert len(tables) == 8 and all(len(t) == 256 for t in tables)


class TestDESByteTableKeySchedule:
    """Sixteen nibble lookups ≡ the reference PC1/rotation/PC2 schedule."""

    SEMI_WEAK = [bytes.fromhex(k) for k in (
        "011F011F010E010E", "1F011F010E010E01", "01E001E001F101F1",
        "E001E001F101F101", "01FE01FE01FE01FE", "FE01FE01FE01FE01",
        "1FE01FE00EF10EF1", "E01FE01FF10EF10E", "1FFE1FFE0EFE0EFE",
        "FE1FFE1FFE0EFE0E", "E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1",
    )]
    PARITY_ONLY = bytes([0x01] * 8)

    @staticmethod
    def _reference(key):
        with fastpath.force(False):
            return expand_key(key)

    def test_random_weak_semi_weak_and_parity_only_keys(self):
        rng = random.Random(0x5C4ED)
        keys = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(500)]
        keys += TestOnePassEDE.WEAK_KEYS + self.SEMI_WEAK + [self.PARITY_ONLY]
        for key in keys:
            assert fastpath.des_expand_key(key) == self._reference(key), key.hex()
        assert fastpath.des_expand_key(self.PARITY_ONLY) == [0] * 16

    def test_tables_are_derived_from_pc1_and_pc2(self, monkeypatch):
        from repro.crypto import des as des_module

        rng = random.Random(0x9C2)
        pc1, pc2 = list(_PC1), list(_PC2)
        rng.shuffle(pc1)
        rng.shuffle(pc2)
        key = bytes(range(1, 9))
        genuine = fastpath.des_expand_key(key)
        monkeypatch.setattr(des_module, "_PC1", tuple(pc1))
        monkeypatch.setattr(des_module, "_PC2", tuple(pc2))
        monkeypatch.setattr(fastpath, "_DES_TABLES", None)
        assert fastpath.des_expand_key(key) == self._reference(key) != genuine

    def test_nibble_tables_match_single_bit_and_random_keys(self):
        tables = fastpath._des_tables()["key"]
        assert len(tables) == 16 and all(len(t) == 16 for t in tables)
        rng = random.Random(0x41B)
        keys = [(1 << bit).to_bytes(8, "big") for bit in range(64)]
        keys += [bytes(rng.randrange(256) for _ in range(8))
                 for _ in range(200)]
        for key in keys:
            assert fastpath.des_expand_key(key) == self._reference(key), key.hex()


def _reference_des_keys(key):
    with fastpath.force(False):
        return expand_key(key)


def _inverse_key_quad(words):
    """InvMixColumns of one AES round key, through the reference loop."""
    state = [[(word >> (24 - 8 * row)) & 255 for word in words]
             for row in range(4)]
    _inv_mix_columns(state)
    return [int.from_bytes(bytes(state[row][col] for row in range(4)), "big")
            for col in range(4)]


class TestPackedSchedules:
    """Each keyed block cipher keeps key bytes and one packed ``bytes``
    schedule per direction its fast path runs."""

    AES_KEYS = [bytes(range(16)), bytes(range(24)), bytes(range(32))]
    TDES_KEY = bytes.fromhex("0123456789abcdef23456789abcdef01456789abcdef0123")

    @pytest.mark.parametrize("key", AES_KEYS, ids=lambda k: f"AES-{8 * len(k)}")
    def test_aes_schedules_unpack_to_the_reference_round_keys(self, key):
        with fastpath.force(True):
            cipher = AES(key)
            enc, dec = cipher._schedule(False), cipher._schedule(True)
        round_keys = key_expansion(key)
        assert isinstance(enc, bytes) and isinstance(dec, bytes)
        assert [list(q) for q in struct.iter_unpack(">4I", enc)] == round_keys
        # Equivalent inverse cipher: reversed order, InvMixColumns on the
        # inner keys, in natural word order.
        inverse = ([round_keys[-1]]
                   + [_inverse_key_quad(rk) for rk in round_keys[-2:0:-1]]
                   + [round_keys[0]])
        assert [list(q) for q in struct.iter_unpack(">4I", dec)] == inverse

    def test_tdes_schedules_unpack_to_ede_order_both_ways(self):
        s1, s2, s3 = (_reference_des_keys(self.TDES_KEY[i:i + 8])
                      for i in (0, 8, 16))
        with fastpath.force(True):
            cipher = TripleDES(self.TDES_KEY)
            enc, dec = cipher._schedule(False), cipher._schedule(True)
        assert isinstance(enc, bytes) and len(enc) == 384
        assert list(struct.unpack(">48Q", enc)) == s1 + s2[::-1] + s3
        assert list(struct.unpack(">48Q", dec)) == s3[::-1] + s2 + s1[::-1]

    @pytest.mark.parametrize("factory,key", [
        (AES, bytes(range(16))), (TripleDES, TDES_KEY)], ids=["AES", "3DES"])
    def test_one_instance_gives_the_same_record_on_both_paths(self, factory,
                                                              key):
        cipher = factory(key)
        size = cipher.block_size
        iv, data = bytes(range(size)), bytes(range(7 * size))
        with fastpath.force(True):
            fast_ct = CBC(cipher, iv).encrypt(data, pad=False)
            fast_pt = CBC(cipher, iv).decrypt(fast_ct, pad=False)
        with fastpath.force(False):
            assert CBC(cipher, iv).encrypt(data, pad=False) == fast_ct
            assert CBC(cipher, iv).decrypt(fast_ct, pad=False) == fast_pt == data

    @pytest.mark.parametrize("factory,key,module,expander,expansions", [
        (AES, bytes(range(16)), aes_module, "key_expansion", 1),
        (TripleDES, TDES_KEY, des_module, "expand_key", 3),
    ], ids=["AES", "3DES"])
    def test_probed_cipher_expands_its_round_keys_once(
            self, monkeypatch, factory, key, module, expander, expansions):
        calls = []
        genuine = getattr(module, expander)

        def counted(k):
            calls.append(k)
            return genuine(k)

        monkeypatch.setattr(module, expander, counted)
        recorder = TraceRecorder()
        with fastpath.force(True):
            cipher = factory(key, recorder)
            assert len(calls) == expansions
            CBC(cipher, bytes(cipher.block_size)).encrypt(bytes(64))
            cipher.decrypt_block(bytes(cipher.block_size))
        assert len(calls) == expansions
        assert recorder.samples

    @pytest.mark.parametrize("decrypt", [False, True], ids=["seal", "open"])
    @pytest.mark.parametrize("factory,key", [
        (AES, bytes(range(16))), (TripleDES, TDES_KEY)], ids=["AES", "3DES"])
    def test_keyed_instance_holds_at_most_1_kib(self, factory, key, decrypt):
        size = factory(key).block_size
        iv, record = bytes(size), bytes(3 * size)
        with fastpath.force(True):
            # Build the shared tables and the mode's code paths first.
            CBC(factory(key), iv).decrypt(
                CBC(factory(key), iv).encrypt(record, pad=False), pad=False)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cipher = factory(key)
                mode = CBC(cipher, iv)
                out = (mode.decrypt if decrypt else mode.encrypt)(record,
                                                                 pad=False)
                del mode, out
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert cipher._schedule(decrypt)
        assert held <= 1024, held
