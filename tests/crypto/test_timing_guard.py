"""Wall-clock guard for the fast-path kernels.

A deliberately generous budget: the workload below completes in well
under a second on the fast paths but takes tens of seconds if the
precomputed-table kernels silently regress to the reference loops
(e.g. a gating bug re-routing everything through the per-bit
``permute_bits`` path).  This is a tripwire, not a benchmark —
``benchmarks/bench_fastpath.py`` measures the actual speedups.
"""

import time

import pytest

from repro.crypto import fastpath
from repro.crypto.a51 import A51
from repro.crypto.aes import AES
from repro.crypto.des import DES
from repro.crypto.grain import Grain
from repro.crypto.md5 import md5
from repro.crypto.modes import CBC, ECB
from repro.crypto.sha1 import sha1
from repro.crypto.tdes import TripleDES

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
