"""The lightweight stream-cipher family: A5/1, Grain v1, Trivium.

Six layers of assurance, matching the conformance plane's policy:

* the published A5/1 pedagogical vector (Briceno/Goldberg/Wagner) on
  both dispatch paths (the corpus files themselves run through
  ``tests/conformance/test_vectors.py``);
* a dual-implementation cross-check — the spec-indexed bit-list
  implementations inside ``tools/gen_stream_vectors.py`` (the corpus
  generator) against the packed-integer production ciphers, on fresh
  inputs the frozen pins never saw;
* hypothesis properties: round-trip identity, fast/reference state
  equality under arbitrary read-length schedules (WTLS record-sized
  reads among the explicit examples), save/restore mid-stream, and
  corruption visibility;
* fast/reference agreement on the per-record re-key: 200 seeded A5/1
  key schedules and bursts, and the Trivium key loader against its
  per-bit formula;
* the A5/1 byte kernel (and its majority and selection tables entry
  by entry) and Grain's bulk keystream kernel (around its LFSR
  ladder's step switches) against the per-step reference on random,
  all-zero and all-ones registers;
* interface contracts the record layers rely on (memoryview inputs,
  key-blob splitting, invalid key and keystream lengths).
"""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import a51, fastpath, grain
from repro.crypto.a51 import A51
from repro.crypto.errors import InvalidKeyLength
from repro.crypto.grain import Grain
from repro.crypto.rc4 import RC4
from repro.crypto.trivium import Trivium, _load_reflected

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / \
    "gen_stream_vectors.py"
_spec = importlib.util.spec_from_file_location("gen_stream_vectors", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

CIPHERS = [
    pytest.param(A51, 8, 3, id="a51"),
    pytest.param(Grain, 10, 8, id="grain"),
    pytest.param(Trivium, 10, 10, id="trivium"),
]


def _blob(factory, key_bytes, iv_bytes, fill=0x5C):
    key = bytes((fill + i) % 256 for i in range(key_bytes))
    iv = bytes((fill ^ i) % 256 for i in range(iv_bytes))
    return key, iv


class TestPublishedVector:
    """The one citable byte-level anchor: the BGW A5/1 vector."""

    KEY = bytes.fromhex("1223456789abcdef")

    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_bgw_burst(self, path):
        with fastpath.force(path == "fast"):
            a_to_b, b_to_a = A51.burst(self.KEY, 0x134)
        assert a_to_b.hex() == "534eaa582fe8151ab6e1855a728c00"
        assert b_to_a.hex() == "24fd35a35d5fb6526d32f906df1ac0"

    def test_continuous_keystream_extends_the_burst(self):
        """The record-layer keystream starts exactly where the GSM
        A→B burst starts — the published vector anchors both forms."""
        blob = self.KEY + (0x134).to_bytes(3, "big")
        a_to_b, _ = A51.burst(self.KEY, 0x134)
        assert A51(blob).keystream(14) == a_to_b[:14]


class TestDualImplementation:
    """Production vs the generator's bit-list implementations, on
    inputs distinct from every frozen corpus pin."""

    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_a51(self, path):
        key = bytes.fromhex("fedcba9876543210")
        frame = 0x2AAAAA
        want = gen.independent_a51_keystream(key, frame, 64)
        with fastpath.force(path == "fast"):
            got = A51(key + frame.to_bytes(3, "big")).keystream(64)
        assert got == want

    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_trivium(self, path):
        key = bytes(range(0x30, 0x3A))
        iv = bytes(range(0xF6, 0x100))
        want = gen.independent_trivium(key, iv, 64)
        with fastpath.force(path == "fast"):
            got = Trivium(key + iv).keystream(64)
        assert got == want

    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_grain(self, path):
        key = bytes(range(0x30, 0x3A))
        iv = bytes(range(0xA0, 0xA8))
        want = gen.independent_grain(key, iv, 64)
        with fastpath.force(path == "fast"):
            got = Grain(key + iv).keystream(64)
        assert got == want


class TestProperties:
    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.binary(min_size=0, max_size=300), seed=st.integers(0, 255))
    def test_round_trip_identity(self, factory, key_bytes, iv_bytes, data,
                                 seed):
        key, iv = _blob(factory, key_bytes, iv_bytes, seed)
        assert factory(key + iv).process(
            factory(key + iv).process(data)) == data

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(0, 65), min_size=1, max_size=6),
           flips=st.lists(st.booleans(), min_size=6, max_size=6))
    # A WTLS 1 KiB request and its reply, each with its MAC.
    @example(lengths=[1044, 1047, 1044], flips=[False, True, True] * 2)
    @example(lengths=[1047, 1044], flips=[True, False] * 3)
    def test_paths_agree_under_any_read_schedule(self, factory, key_bytes,
                                                 iv_bytes, lengths, flips):
        """Fast and reference keystreams — and their saved states —
        must agree after an arbitrary sequence of read lengths, even
        when the dispatch switch flips between reads (a traced cipher
        mid-connection must not lose its keystream position)."""
        key, iv = _blob(factory, key_bytes, iv_bytes)
        with fastpath.force(True):
            fast = factory(key + iv)
        with fastpath.force(False):
            reference = factory(key + iv)
        mixed = factory(key + iv)
        for i, length in enumerate(lengths):
            with fastpath.force(True):
                chunk_fast = fast.keystream(length)
            with fastpath.force(False):
                chunk_ref = reference.keystream(length)
            with fastpath.force(flips[i % len(flips)]):
                chunk_mixed = mixed.keystream(length)
            assert chunk_fast == chunk_ref == chunk_mixed
        assert fast.save_state() == reference.save_state() == \
            mixed.save_state()

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    @settings(max_examples=10, deadline=None)
    @given(prefix=st.integers(0, 100), replay=st.integers(1, 80))
    def test_save_restore_replays_exactly(self, factory, key_bytes,
                                          iv_bytes, prefix, replay):
        key, iv = _blob(factory, key_bytes, iv_bytes)
        cipher = factory(key + iv)
        cipher.keystream(prefix)
        snapshot = cipher.save_state()
        first = cipher.keystream(replay)
        cipher.restore_state(snapshot)
        assert cipher.keystream(replay) == first

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.binary(min_size=1, max_size=120),
           bit=st.integers(0, 7))
    def test_corruption_is_visible(self, factory, key_bytes, iv_bytes,
                                   data, bit):
        """Stream ciphers provide no integrity: flipping a ciphertext
        bit flips exactly that plaintext bit — the property the record
        layer's MAC exists to catch."""
        key, iv = _blob(factory, key_bytes, iv_bytes)
        ciphertext = bytearray(factory(key + iv).process(data))
        ciphertext[0] ^= 1 << bit
        garbled = factory(key + iv).process(bytes(ciphertext))
        assert garbled[0] == data[0] ^ (1 << bit)
        assert garbled[1:] == data[1:]


class TestCrossPath:
    """Fast vs reference on the key schedule the record layer runs for
    every record."""

    @staticmethod
    def _a51_blobs():
        # Edge keys, then random keys and key || frame-tag blobs; most
        # random tags have bits above the 22-bit frame number set.
        rng = random.Random(2003)
        blobs = [bytes(8), b"\xff" * 8, bytes(11), b"\xff" * 11,
                 b"\xaa" * 8 + b"\x55" * 3, b"\x55" * 8 + b"\xc0\x00\x01"]
        return blobs + [rng.randbytes(rng.choice((8, 11)))
                        for _ in range(194)]

    def test_a51_schedule_and_burst(self):
        for blob in self._a51_blobs():
            key, frame = blob[:8], int.from_bytes(blob[8:], "big")
            with fastpath.force(True):
                fast = A51(blob).save_state(), A51.burst(key, frame)
            with fastpath.force(False):
                reference = A51(blob).save_state(), A51.burst(key, frame)
            assert fast == reference, blob.hex()

    def test_trivium_loader_matches_per_bit_formula(self):
        rng = random.Random(80)
        for data in [bytes(10), b"\xff" * 10] + [rng.randbytes(10)
                                                 for _ in range(50)]:
            for width in (93, 84):
                want = 0
                for x in range(80):
                    want |= (data[x >> 3] >> (x & 7) & 1) << (width - 1 - x)
                assert _load_reflected(data, width) == want


class TestGrainKernel:
    """The fast path's ``grain._keystream`` (LFSR stream, NFSR loop,
    bulk filter) against the per-step ``_step`` path: the same bytes
    out and the same registers after.  The chunk counts straddle the
    LFSR stream's 640-bit switch to 144-bit steps (35 chunks fill
    640 bits) and run to a 1 KiB record."""

    @staticmethod
    def _states():
        rng = random.Random(16)
        ones = (1 << 80) - 1
        return [(0, 0), (ones, ones), (0, ones), (ones, 0)] + [
            (rng.getrandbits(80), rng.getrandbits(80)) for _ in range(2)]

    @pytest.mark.parametrize("chunks", [1, 2, 34, 35, 36, 45, 512, 513])
    def test_matches_per_step_path(self, chunks):
        for b, s in self._states():
            with fastpath.force(False):
                reference = Grain(bytes(10))
                reference.restore_state((b, s, b""))
                want = reference.keystream(2 * chunks)
            assert grain._keystream(b, s, chunks) == \
                (want,) + reference.save_state()[:2], (chunks, b, s)

    @pytest.mark.parametrize("bits", [80, 81, 96, 159, 160, 161, 320, 639,
                                      640, 641, 784, 785, 8272])
    def test_lfsr_stream_matches_the_recurrence(self, bits):
        rng = random.Random(bits)
        s = rng.getrandbits(80)
        want = [s >> i & 1 for i in range(80)]
        for i in range(bits - 80):
            want.append(want[i + 62] ^ want[i + 51] ^ want[i + 38]
                        ^ want[i + 23] ^ want[i + 13] ^ want[i])
        assert grain._lfsr_stream(s, bits) == \
            sum(bit << i for i, bit in enumerate(want))


class TestA51Kernel:
    """The fast path's ``a51._run_bytes`` (two 4-step majority lookups,
    one 8-step output lookup and table feedback per register per byte)
    against the per-step ``_clock_majority`` path: the same bytes out
    and the same registers after."""

    @staticmethod
    def _registers():
        rng = random.Random(51)
        triples = [(0, 0, 0), (0x7FFFF, 0x3FFFFF, 0x7FFFFF)]
        # All three clock windows (R1 bits 8..1, R2/R3 bits 10..3) equal.
        for window in (0x00, 0xFF, 0x5A, 0xC3):
            r1, r2, r3 = rng.getrandbits(19), rng.getrandbits(22), \
                rng.getrandbits(23)
            triples.append((r1 & ~0x1FE | window << 1,
                            r2 & ~0x7F8 | window << 3,
                            r3 & ~0x7F8 | window << 3))
        # Exactly one register's clock bit set.
        for one in range(3):
            r1, r2, r3 = rng.getrandbits(19), rng.getrandbits(22), \
                rng.getrandbits(23)
            triples.append((r1 & ~0x100 | (one == 0) << 8,
                            r2 & ~0x400 | (one == 1) << 10,
                            r3 & ~0x400 | (one == 2) << 10))
        return triples + [(rng.getrandbits(19), rng.getrandbits(22),
                           rng.getrandbits(23)) for _ in range(4)]

    @pytest.mark.parametrize("length", [0, 1, 11, 12, 13, 87, 1047])
    def test_matches_per_step_path(self, length):
        for registers in self._registers():
            with fastpath.force(False):
                reference = A51(bytes(8))
                reference.restore_state(registers)
                want = reference.keystream(length)
            out = bytearray(length)
            after = a51._run_bytes(*registers, out)
            assert (bytes(out), after) == (want, reference.save_state()), \
                (length, registers)

    def test_majority_tables_match_clock_majority(self):
        """Each window triple, loaded at the clock bits over a marker
        bit (so every clocked register changes), run through four
        reference clocks."""
        first, second = a51._a51_tables()[:2]
        for index in range(4096):
            registers = ((index & 15) << 5 | 1, (index >> 4 & 15) << 7 | 1,
                         (index >> 8) << 7 | 1)
            counts, masks = [0, 0, 0], [0, 0, 0]
            for step in range(4):
                clocked = A51._clock_majority(*registers)
                for i in range(3):
                    if clocked[i] != registers[i]:
                        counts[i] += 1
                        masks[i] |= 8 >> step
                registers = clocked
            assert first[index] == (*counts, *(m << 13 for m in masks))
            assert second[index] == (*counts, *(m << 9 for m in masks))

    def test_select_table_matches_bit_gather(self):
        """Entry ``mask << 9 | top``: step ``s`` emits the register's
        top bit after the clocks ``mask`` gave it so far."""
        select = a51._a51_tables()[2]
        assert len(select) == 1 << 17
        for mask in range(256):
            sources, clocks = [], 0
            for step in range(8):
                clocks += mask >> (7 - step) & 1
                sources.append(8 - clocks)
            want = bytes(sum((top >> source & 1) << (7 - step)
                             for step, source in enumerate(sources))
                         for top in range(512))
            assert select[mask << 9:(mask + 1) << 9] == want, mask


class TestInterface:
    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    def test_short_blob_means_zero_iv(self, factory, key_bytes, iv_bytes):
        key, _ = _blob(factory, key_bytes, iv_bytes)
        assert factory(key).keystream(24) == \
            factory(key + bytes(iv_bytes)).keystream(24)

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    def test_invalid_key_length_rejected(self, factory, key_bytes, iv_bytes):
        with pytest.raises(InvalidKeyLength):
            factory(bytes(key_bytes + iv_bytes + 1))

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    def test_memoryview_process(self, factory, key_bytes, iv_bytes):
        """The zero-copy record plane hands ciphers memoryviews."""
        key, iv = _blob(factory, key_bytes, iv_bytes)
        data = bytes(range(64))
        assert factory(key + iv).process(memoryview(data)) == \
            factory(key + iv).process(data)

    @pytest.mark.parametrize("factory,key_bytes,iv_bytes", CIPHERS)
    def test_distinct_ivs_give_distinct_streams(self, factory, key_bytes,
                                                iv_bytes):
        """The WTLS per-record rekey (key XOR sequence) lands in the
        IV/frame bytes; it must actually change the keystream."""
        key, iv = _blob(factory, key_bytes, iv_bytes)
        other = bytes(iv[:-1]) + bytes([iv[-1] ^ 1])
        assert factory(key + iv).keystream(24) != \
            factory(key + other).keystream(24)

    @pytest.mark.parametrize("path", ["fast", "reference"])
    @pytest.mark.parametrize("factory,blob", [
        pytest.param(A51, bytes(range(11)), id="a51"),
        pytest.param(Grain, bytes(range(18)), id="grain"),
        pytest.param(Trivium, bytes(range(20)), id="trivium"),
        pytest.param(RC4, bytes(range(16)), id="rc4"),
    ])
    def test_negative_length_rejected(self, factory, blob, path):
        """A negative read raises and leaves the keystream position
        where it was, leftover bytes included."""
        with fastpath.force(path == "fast"):
            cipher, twin = factory(blob), factory(blob)
            cipher.keystream(3)
            twin.keystream(3)
            with pytest.raises(ValueError):
                cipher.keystream(-1)
            assert cipher.save_state() == twin.save_state()
            assert cipher.keystream(13) == twin.keystream(13)

    def test_a51_burst_requires_raw_key(self):
        with pytest.raises(InvalidKeyLength):
            A51.burst(bytes(11), 0)
