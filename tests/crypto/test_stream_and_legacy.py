"""RC4, RC2, and 3DES: published vectors and behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastpath
from repro.crypto.des import DES
from repro.crypto.errors import InvalidBlockSize, InvalidKeyLength
from repro.crypto.rc2 import RC2
from repro.crypto.rc4 import RC4
from repro.crypto.tdes import TripleDES


class TestRC4Vectors:
    """The de-facto RC4 test vectors (Wikipedia / original posting)."""

    @pytest.mark.parametrize("key,plaintext,expected", [
        (b"Key", b"Plaintext", "BBF316E8D940AF0AD3"),
        (b"Wiki", b"pedia", "1021BF0420"),
        (b"Secret", b"Attack at dawn", "45A01F645FC35B383552544B9BF5"),
    ])
    def test_known_answers(self, key, plaintext, expected):
        assert RC4(key).process(plaintext).hex().upper() == expected

    def test_keystream_continuation(self):
        # Two chunked calls equal one big call.
        whole = RC4(b"Key").keystream(32)
        chunked = RC4(b"Key")
        assert chunked.keystream(10) + chunked.keystream(22) == whole

    def test_symmetric(self):
        data = b"stream cipher round trip"
        assert RC4(b"k1").process(RC4(b"k1").process(data)) == data

    def test_key_length_limits(self):
        with pytest.raises(InvalidKeyLength):
            RC4(b"")
        with pytest.raises(InvalidKeyLength):
            RC4(bytes(257))

    def test_iterator_interface(self):
        stream = iter(RC4(b"Key"))
        first_two = [next(stream), next(stream)]
        assert first_two == list(RC4(b"Key").keystream(2))


def _textbook_rc4(key: bytes, length: int):
    """RC4 exactly as the original posting writes it: ``length``
    keystream bytes, and the permutation right after the KSA."""
    state = list(range(256))
    j = 0
    for i in range(256):
        j = (j + state[i] + key[i % len(key)]) % 256
        state[i], state[j] = state[j], state[i]
    after_ksa = state.copy()
    i = j = 0
    out = []
    for _ in range(length):
        i = (i + 1) % 256
        j = (j + state[i]) % 256
        state[i], state[j] = state[j], state[i]
        out.append(state[(state[i] + state[j]) % 256])
    return bytes(out), after_ksa


class TestRC4KeySchedule:
    @pytest.mark.parametrize("length", [1, 5, 16, 255, 256])
    def test_ksa_matches_textbook(self, length):
        key = bytes((31 * i + 7) & 0xFF for i in range(length))
        textbook_stream, textbook_state = _textbook_rc4(key, 300)
        cipher = RC4(key)
        assert cipher.save_state() == (textbook_state, 0, 0)
        assert cipher.keystream(300) == textbook_stream

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_process_accepts_buffers(self, kind):
        data = bytes(range(200)) * 3
        expected = bytes(
            d ^ s for d, s in zip(data, _textbook_rc4(b"buffer", len(data))[0]))
        assert RC4(b"buffer").process(kind(data)) == expected

    def test_process_empty_input(self):
        cipher = RC4(b"Key")
        for empty in (b"", bytearray(), memoryview(b"")):
            assert cipher.process(empty) == b""
        # Empty input consumes no keystream.
        assert cipher.keystream(4) == RC4(b"Key").keystream(4)

    def test_process_keeps_leading_zero_bytes(self):
        # The int XOR must not drop leading zero bytes of the output.
        keystream = RC4(b"Key").keystream(9)
        assert RC4(b"Key").process(keystream) == bytes(9)


class TestRC2Vectors:
    """RFC 2268 Section 5 test vectors (including effective-bits)."""

    @pytest.mark.parametrize("key,effective,pt,ct", [
        ("0000000000000000", 63, "0000000000000000", "ebb773f993278eff"),
        ("ffffffffffffffff", 64, "ffffffffffffffff", "278b27e42e2f0d49"),
        ("3000000000000000", 64, "1000000000000001", "30649edf9be7d2c2"),
        ("88", 64, "0000000000000000", "61a8a244adacccf0"),
        ("88bca90e90875a", 64, "0000000000000000", "6ccf4308974c267f"),
        ("88bca90e90875a7f0f79c384627bafb2", 64, "0000000000000000",
         "1a807d272bbe5db1"),
        ("88bca90e90875a7f0f79c384627bafb2", 128, "0000000000000000",
         "2269552ab0f85ca6"),
    ])
    def test_known_answers(self, key, effective, pt, ct):
        cipher = RC2(bytes.fromhex(key), effective)
        assert cipher.encrypt_block(bytes.fromhex(pt)).hex() == ct
        assert cipher.decrypt_block(bytes.fromhex(ct)).hex() == pt

    def test_default_effective_bits(self):
        assert RC2(bytes(16)).effective_bits == 128

    def test_effective_bits_matter(self):
        strong = RC2(bytes(16), 128).encrypt_block(bytes(8))
        export = RC2(bytes(16), 40).encrypt_block(bytes(8))
        assert strong != export

    def test_key_length_limits(self):
        with pytest.raises(InvalidKeyLength):
            RC2(b"")
        with pytest.raises(InvalidKeyLength):
            RC2(bytes(129))

    def test_block_size_enforced(self):
        with pytest.raises(InvalidBlockSize):
            RC2(bytes(16)).encrypt_block(bytes(7))


class TestTripleDES:
    def test_degenerate_single_key_equals_des(self):
        key = bytes.fromhex("133457799BBCDFF1")
        block = bytes.fromhex("0123456789ABCDEF")
        assert TripleDES(key).encrypt_block(block) == \
            DES(key).encrypt_block(block)

    def test_two_key_form(self):
        key16 = bytes(range(16))
        key24 = key16 + key16[:8]  # K3 = K1
        block = b"ABCDEFGH"
        assert TripleDES(key16).encrypt_block(block) == \
            TripleDES(key24).encrypt_block(block)

    def test_three_key_roundtrip(self):
        cipher = TripleDES(bytes(range(24)))
        assert cipher.decrypt_block(cipher.encrypt_block(b"12345678")) == \
            b"12345678"

    def test_distinct_keys_change_output(self):
        block = b"payloads"
        a = TripleDES(bytes(24)).encrypt_block(block)
        # Flip a non-parity key bit (bit 0 of each byte is parity in DES).
        b = TripleDES(bytes([2]) + bytes(23)).encrypt_block(block)
        assert a != b

    def test_invalid_key_length(self):
        with pytest.raises(InvalidKeyLength):
            TripleDES(bytes(12))

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("method", ["encrypt_block", "decrypt_block"])
    def test_block_size_error_names_3des(self, fast, method):
        with fastpath.force(fast):
            cipher = TripleDES(bytes(range(24)))
            with pytest.raises(InvalidBlockSize) as raised:
                getattr(cipher, method)(b"abc")
        assert raised.value.algorithm == "3DES"
        assert raised.value.args[0].startswith("3DES:")


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=1, max_size=64),
       data=st.binary(max_size=200))
def test_rc4_roundtrip_property(key, data):
    assert RC4(key).process(RC4(key).process(data)) == data


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=1, max_size=32),
       block=st.binary(min_size=8, max_size=8))
def test_rc2_roundtrip_property(key, block):
    cipher = RC2(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=24, max_size=24),
       block=st.binary(min_size=8, max_size=8))
def test_tdes_roundtrip_property(key, block):
    cipher = TripleDES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
