"""Reference-vs-fast-path throughput for the precomputed-table kernels.

Measures the same primitive on both sides of the
``repro.crypto.fastpath`` switch and asserts the speedups the fast
paths exist to deliver (paper §3.2: the security processing gap —
wall-clock headroom is what lets the attack simulators run enough
traces to matter).

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_fastpath.py`` — prints a
  reference/fast/speedup table;
* ``PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py`` —
  asserts each speedup floor.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, List, Tuple

import pytest

from repro.crypto import fastpath
from repro.crypto.a51 import A51
from repro.crypto.aes import AES
from repro.crypto.des import DES
from repro.crypto.grain import Grain
from repro.crypto.hmac import hmac
from repro.crypto.md5 import md5
from repro.crypto.modes import CBC, ECB
from repro.crypto.sha1 import sha1
from repro.crypto.tdes import TripleDES
from repro.crypto.trivium import Trivium

KEY16 = bytes(range(16))
KEY8 = bytes(range(8))
KEY24 = bytes(range(24))
IV16 = bytes(16)
IV8 = bytes(8)


def _aes_cbc(payload: bytes) -> bytes:
    return CBC(AES(KEY16), IV16).encrypt(payload)


def _aes_cbc_decrypt(payload: bytes) -> bytes:
    """1 KiB records opened by one cipher with a fresh ``CBC`` each, as
    the record layer does."""
    cipher = AES(KEY16)
    return b"".join(CBC(cipher, IV16).decrypt(payload[i:i + 1024], pad=False)
                    for i in range(0, len(payload), 1024))


def _3des_cbc_decrypt(payload: bytes) -> bytes:
    """1 KiB records opened by one 3DES cipher with a fresh ``CBC`` each,
    as :func:`_aes_cbc_decrypt` does."""
    cipher = TripleDES(KEY24)
    return b"".join(CBC(cipher, IV8).decrypt(payload[i:i + 1024], pad=False)
                    for i in range(0, len(payload), 1024))


def _des_ecb(payload: bytes) -> bytes:
    return ECB(DES(KEY8)).encrypt(payload)


def _3des_ecb(payload: bytes) -> bytes:
    return ECB(TripleDES(KEY24)).encrypt(payload)


def _hmac_sha1(payload: bytes) -> bytes:
    return hmac(b"bench mac key", payload)


def _per_record(factory, key: bytes) -> Callable[[bytes], bytes]:
    """A fresh stream cipher per 1 KiB record, as WTLS re-keys each
    record with ``key XOR sequence``: construction plus ``process``."""
    def run(payload: bytes) -> bytes:
        return b"".join(factory(key).process(payload[i:i + 1024])
                        for i in range(0, len(payload), 1024))
    return run


# name, workload, payload bytes on the *reference* side, required speedup.
# Reference payloads are kept small (the whole point is that the
# reference loops are slow); throughput normalises them out.
WORKLOADS: List[Tuple[str, Callable[[bytes], bytes], int, float]] = [
    ("AES-128-CBC", _aes_cbc, 4 * 1024, 5.0),
    ("AES-128-CBC decrypt", _aes_cbc_decrypt, 4 * 1024, 120.0),
    ("DES-ECB", _des_ecb, 4 * 1024, 15.0),
    ("3DES-ECB", _3des_ecb, 2 * 1024, 15.0),
    ("3DES-CBC decrypt", _3des_cbc_decrypt, 1024, 63.0),
    ("SHA-1", sha1, 64 * 1024, 5.0),
    ("MD5", md5, 64 * 1024, 5.0),
    ("HMAC-SHA1", _hmac_sha1, 64 * 1024, 5.0),
    ("A5/1", _per_record(A51, bytes(range(11))), 1024, 6.0),
    ("Grain", _per_record(Grain, bytes(range(18))), 1024, 27.0),
    ("Trivium", _per_record(Trivium, bytes(range(20))), 1024, 60.0),
]

FAST_SCALE = 16  # fast side gets a proportionally larger payload

#: Each side's share of a measurement: at least ``MIN_SECONDS`` of work
#: in at least ``MIN_PAIRS`` reference/fast window pairs.
MIN_SECONDS = 0.2
MIN_PAIRS = 5
WINDOW_SECONDS = 0.02


def _window(fn: Callable[[bytes], bytes], payload: bytes,
            seconds: float) -> Tuple[float, int]:
    """(seconds, bytes) of whole calls, timed over at least ``seconds``."""
    done = 0
    start = time.perf_counter()
    while True:
        fn(payload)
        done += len(payload)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed, done


def measure(name: str) -> Tuple[float, float, float]:
    """(reference B/s, fast B/s, speedup) for one named workload.

    The two sides run in short alternating windows, so a slow phase of
    a shared host lands on both sides of a pair; the speedup is the
    median of the per-pair ratios, and each throughput the median of
    its side's windows."""
    for wl_name, fn, ref_size, _floor in WORKLOADS:
        if wl_name == name:
            break
    else:
        raise KeyError(name)
    ref_payload = b"\xA5" * ref_size
    fast_payload = b"\xA5" * (ref_size * FAST_SCALE)
    with fastpath.force(False):
        fn(ref_payload)  # warm up (table construction, hashlib binding)
    with fastpath.force(True):
        fn(fast_payload)
    refs: List[float] = []
    fasts: List[float] = []
    ref_total = fast_total = 0.0
    while (len(refs) < MIN_PAIRS or ref_total < MIN_SECONDS
           or fast_total < MIN_SECONDS):
        with fastpath.force(False):
            elapsed, done = _window(fn, ref_payload, WINDOW_SECONDS)
        ref_total += elapsed
        refs.append(done / elapsed)
        with fastpath.force(True):
            elapsed, done = _window(fn, fast_payload, WINDOW_SECONDS)
        fast_total += elapsed
        fasts.append(done / elapsed)
    ratios = [fast / ref for ref, fast in zip(refs, fasts)]
    return median(refs), median(fasts), median(ratios)


def _required_speedup(name: str) -> float:
    return next(floor for wl, _f, _s, floor in WORKLOADS if wl == name)


def test_aes_cbc_speedup():
    assert measure("AES-128-CBC")[2] >= _required_speedup("AES-128-CBC")


def test_aes_cbc_decrypt_speedup():
    assert measure("AES-128-CBC decrypt")[2] >= _required_speedup(
        "AES-128-CBC decrypt")


def test_des_ecb_speedup():
    assert measure("DES-ECB")[2] >= _required_speedup("DES-ECB")


def test_3des_ecb_speedup():
    assert measure("3DES-ECB")[2] >= _required_speedup("3DES-ECB")


def test_3des_cbc_decrypt_speedup():
    assert measure("3DES-CBC decrypt")[2] >= _required_speedup(
        "3DES-CBC decrypt")


def test_sha1_speedup():
    assert measure("SHA-1")[2] >= _required_speedup("SHA-1")


def test_md5_speedup():
    assert measure("MD5")[2] >= _required_speedup("MD5")


def test_hmac_sha1_speedup():
    assert measure("HMAC-SHA1")[2] >= _required_speedup("HMAC-SHA1")


@pytest.mark.parametrize("name", ["A5/1", "Grain", "Trivium"])
def test_stream_cipher_speedup(name):
    assert measure(name)[2] >= _required_speedup(name)


def main() -> None:
    print(f"{'workload':<20} {'reference':>12} {'fast':>12} {'speedup':>9}")
    print("-" * 56)
    for name, _fn, _size, floor in WORKLOADS:
        ref, fast, speedup = measure(name)
        flag = "" if speedup >= floor else f"  (< {floor:.0f}x floor!)"
        print(f"{name:<20} {ref / 1e3:>9.1f}kB/s {fast / 1e6:>9.2f}MB/s "
              f"{speedup:>8.1f}x{flag}")


if __name__ == "__main__":
    main()
