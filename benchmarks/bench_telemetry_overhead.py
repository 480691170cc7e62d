"""Telemetry-plane overhead: what a probe point costs, per layer.

The observability plane's contract (DESIGN.md §7) is *zero overhead
when disabled*: an instrumented hot path with no active
:class:`~repro.observability.spans.Telemetry` pays one attribute read
and one ``if`` per probe point — the same budget
:class:`~repro.crypto.trace.TraceRecorder` has always had.  This bench
measures that claim on the three instrumented layers the gateway
scenario exercises:

* **record** — the TLS record hot path (encode + decode round trip),
  also measured against the uninstrumented inner kernels
  (``_encode_one``/``_decode``) to isolate the disabled-probe cost;
* **arq** — go-back-N delivery over a lossy channel (retransmit spans);
* **gateway** — one WTLS->TLS->WTLS proxied request through the WAP
  gateway (admit/serve/wired-leg spans plus battery attribution).

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py`` —
  prints a JSON document with off/on seconds and overhead percentages;
* ``PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py``
  — smoke-asserts the measurements exist and enabled mode still
  produced spans (thresholds live in
  ``tests/observability/test_overhead.py``, inside the timing-guard
  budget).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict

from repro.observability import probe
from repro.observability.spans import Telemetry
from repro.protocols.ciphersuites import RSA_WITH_AES_SHA
from repro.protocols.faults import FaultModel, FaultyChannel
from repro.protocols.kdf import KeyBlock
from repro.protocols.records import CONTENT_APPLICATION, make_record_pair
from repro.protocols.reliable import ReliableLink
from repro.protocols.gateway_runtime import build_gateway_runtime_world
from repro.protocols.wap import ORIGIN_NAME

REPEATS = 5


def _key_block(suite) -> KeyBlock:
    def material(tag: int, count: int) -> bytes:
        return bytes((tag + i) % 256 for i in range(count))

    return KeyBlock(
        client_mac_key=material(1, suite.mac_key_bytes),
        server_mac_key=material(2, suite.mac_key_bytes),
        client_cipher_key=material(3, suite.cipher_key_bytes),
        server_cipher_key=material(4, suite.cipher_key_bytes),
        client_iv=material(5, suite.iv_bytes),
        server_iv=material(6, suite.iv_bytes),
    )


def _best_of(fn: Callable[[], None], repeats: int = REPEATS) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-floor estimator)."""
    fn()  # warm-up: table construction, allocator steady state
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- the three layer workloads ----------------------------------------------


def _record_workload(iterations: int = 200, payload_size: int = 512):
    suite = RSA_WITH_AES_SHA
    keys = _key_block(suite)
    encoder, _ = make_record_pair(suite, keys, is_client=True)
    _, decoder = make_record_pair(suite, keys, is_client=False)
    payload = b"\xA5" * payload_size

    def outer() -> None:
        for _ in range(iterations):
            decoder.decode(encoder.encode(CONTENT_APPLICATION, payload))

    def inner() -> None:  # bypasses the probe seam entirely
        for _ in range(iterations):
            decoder._decode(encoder._encode_one(CONTENT_APPLICATION, payload))

    return outer, inner


def _arq_workload(messages: int = 40):
    def run() -> None:
        link = ReliableLink(FaultyChannel(FaultModel.lossy(0.2), seed=11))
        a, b = link.endpoint_a(), link.endpoint_b()
        for i in range(messages):
            a.send(f"frame-{i:03d}".encode())
        for _ in range(messages):
            b.receive()
        a.flush()

    return run


def _gateway_workload(requests: int = 6):
    runtime, handsets, _ca = build_gateway_runtime_world(sessions=1, seed=5)
    handset = handsets["handset-00"]

    def run() -> None:
        # One request a virtual second: the admission bucket never sheds.
        for i in range(requests):
            handset.send(f"GET /bench/{i}".encode())
            runtime.submit("handset-00", ORIGIN_NAME,
                           arrival_offset_s=float(i))
        runtime.run()
        for _ in range(requests):
            handset.receive()

    return run


def measure() -> Dict[str, Dict[str, float]]:
    """Off/on timings per layer, plus the record-path inner baseline."""
    results: Dict[str, Dict[str, float]] = {}
    assert probe.active is None, "bench must start with telemetry off"

    record_outer, record_inner = _record_workload()
    arq_run = _arq_workload()
    gateway_run = _gateway_workload()
    layers = {
        "record": record_outer,
        "arq": arq_run,
        "gateway": gateway_run,
    }

    off = {name: _best_of(fn) for name, fn in layers.items()}
    inner_s = _best_of(record_inner)

    telemetry = Telemetry(seed=("bench-overhead",), label="bench")
    with probe.activate(telemetry):
        on = {name: _best_of(fn) for name, fn in layers.items()}
    assert telemetry.spans, "enabled run recorded no spans"

    for name in layers:
        results[name] = {
            "off_s": off[name],
            "on_s": on[name],
            "on_overhead_pct": 100.0 * (on[name] - off[name]) / off[name],
        }
    results["record"]["inner_s"] = inner_s
    results["record"]["disabled_overhead_pct"] = (
        100.0 * (off["record"] - inner_s) / inner_s)
    results["_meta"] = {
        "repeats": float(REPEATS),
        "spans_recorded": float(len(telemetry.spans)),
    }
    return results


def test_overhead_bench_smoke():
    results = measure()
    for layer in ("record", "arq", "gateway"):
        assert results[layer]["off_s"] > 0.0
        assert results[layer]["on_s"] > 0.0
    assert results["record"]["inner_s"] > 0.0
    assert results["_meta"]["spans_recorded"] > 0
    assert probe.active is None  # activate() restored the disabled state


def main() -> None:
    print(json.dumps(measure(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
