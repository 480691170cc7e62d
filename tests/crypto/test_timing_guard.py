"""Guards against the fast-path kernels falling back to the reference
loops.

Two guards:

* a wall-clock tripwire with a deliberately generous budget: the
  workload below completes in well under a second on the fast paths
  but takes tens of seconds if the precomputed-table kernels silently
  regress to the reference loops (e.g. a gating bug re-routing
  everything through the per-bit ``permute_bits`` path).  It trips
  only when most kernels fall back together;
* a deterministic dispatch guard, one kernel at a time: each kernel's
  reference per-step routine is spied on, and a 1 KiB record on the
  fast path must make no call into it.  The same spy must see calls
  grow with the record on the reference path, so it watches the
  routine that path really runs.

This is not a benchmark — ``benchmarks/bench_fastpath.py`` measures the
actual speedups.
"""

import inspect
import time

import pytest

from repro.crypto import aes, des, fastpath
from repro.crypto.a51 import A51
from repro.crypto.aes import AES
from repro.crypto.des import DES
from repro.crypto.grain import Grain
from repro.crypto.md5 import md5
from repro.crypto.modes import CBC, ECB
from repro.crypto.sha1 import sha1
from repro.crypto.tdes import TripleDES
from repro.crypto.trivium import Trivium

BUDGET_SECONDS = 8.0


@pytest.mark.skipif(not fastpath.enabled(),
                    reason="fast paths disabled via REPRO_FASTPATH")
def test_representative_crypto_workload_within_budget():
    start = time.perf_counter()

    CBC(AES(bytes(range(16))), bytes(16)).encrypt(b"\xA5" * (64 * 1024))
    ECB(DES(bytes(range(8)))).encrypt(b"\x3C" * (32 * 1024))
    ECB(TripleDES(bytes(range(24)))).encrypt(b"\x96" * (8 * 1024))
    sha1(b"\x5A" * (512 * 1024))
    md5(b"\xC3" * (512 * 1024))
    # The fleet's hot path: 3DES-CBC records chained through one context.
    records = [bytes([i]) * 64 for i in range(128)]
    sender = CBC(TripleDES(bytes(range(24))), bytes(8))
    sealed = [sender.encrypt_next(record) for record in records]
    receiver = CBC(TripleDES(bytes(range(24))), bytes(8))
    assert [receiver.decrypt_next(c) for c in sealed] == records
    # WTLS stream suites: a fresh cipher per 1 KiB record, each keyed
    # for its own sequence number.
    record = b"\x69" * 1024
    for seq in range(32):
        Grain(bytes(range(17)) + bytes([seq])).process(record)
        A51(bytes(range(10)) + bytes([seq])).process(record)

    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_SECONDS, (
        f"crypto workload took {elapsed:.1f}s (budget {BUDGET_SECONDS}s); "
        "the fast-path kernels have likely regressed to reference loops"
    )


def _stream_record(factory, blob):
    """A fresh stream cipher per record, as WTLS re-keys every record."""
    def run(length):
        factory(blob).process(bytes(length))
    return run


def _cbc_record(factory, key):
    """One record sealed and opened through the CBC record seam."""
    def run(length):
        iv = bytes(factory.block_size)
        sealed = CBC(factory(key), iv).encrypt(bytes(length), pad=False)
        assert CBC(factory(key), iv).decrypt(sealed, pad=False) == \
            bytes(length)
    return run


_AES_ROUND_HELPERS = [
    (aes, "_add_round_key"), (aes, "_shift_rows"), (aes, "_mix_columns"),
    (aes, "_inv_shift_rows"), (aes, "_inv_sub_bytes"),
    (aes, "_inv_mix_columns"), (AES, "_sub_bytes")]

# kernel, record runner, the reference routines it must not call.
KERNELS = [
    pytest.param(_stream_record(A51, bytes(range(11))),
                 [(A51, "_clock_majority")], id="a51"),
    pytest.param(_stream_record(Grain, bytes(range(18))),
                 [(Grain, "_step")], id="grain"),
    pytest.param(_stream_record(Trivium, bytes(range(20))),
                 [(Trivium, "_step_one")], id="trivium"),
    pytest.param(_cbc_record(DES, bytes(range(8))),
                 [(des, "_crypt_block")], id="des-cbc"),
    pytest.param(_cbc_record(TripleDES, bytes(range(24))),
                 [(des, "_crypt_block")], id="3des-cbc"),
    pytest.param(_cbc_record(AES, bytes(range(16))),
                 _AES_ROUND_HELPERS, id="aes-cbc"),
]


def _spy(monkeypatch, routines):
    """Count the calls into ``routines``; returns the running tally."""
    calls = []
    for owner, name in routines:
        target = getattr(owner, name)

        def spy(*args, _name=name, _target=target, **kwargs):
            calls.append(_name)
            return _target(*args, **kwargs)

        if isinstance(inspect.getattr_static(owner, name), staticmethod):
            spy = staticmethod(spy)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.skipif(not fastpath.enabled(),
                    reason="fast paths disabled via REPRO_FASTPATH")
@pytest.mark.parametrize("record,routines", KERNELS)
def test_fast_path_makes_no_reference_calls(monkeypatch, record, routines):
    calls = _spy(monkeypatch, routines)
    record(1024)
    assert calls == []


@pytest.mark.parametrize("record,routines", KERNELS)
def test_reference_path_calls_grow_with_the_record(monkeypatch, record,
                                                   routines):
    calls = _spy(monkeypatch, routines)
    with fastpath.force(False):
        record(16)
        short = len(calls)
        record(64)
    assert 0 < short < len(calls) - short
