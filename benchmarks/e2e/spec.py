"""What the benchmark measures: workloads, metrics and traced layers.

This module imports nothing from ``repro``, so the parent process and
the comparison tool can use it without loading the program.
``BENCHMARK.json`` at the repository root repeats these definitions;
``test_e2e.py`` checks that the two agree.
"""

from __future__ import annotations

#: Seconds one run measures when ``--seconds`` is not given.
RUN_SECONDS = 20

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Handshake samples a run must collect for ``handshake_ms_p50``.
MIN_HANDSHAKE_SAMPLES = 100

#: Calibration drift (after vs before the timed phase) that marks a run
#: unstable.
UNSTABLE_DRIFT = 0.10

#: Milliseconds the calibration loop takes on the reference host.  A
#: shared host's speed drifts by up to 2x for minutes at a time, and
#: the calibration loop slows with it.  Every timing is therefore
#: scaled by ``CALIB_REF_MS / calibration`` measured next to it (the
#: round before each iteration, the reading after each cold start) and
#: reported in reference-host units; the full report keeps the raw
#: median as ``measured``.
CALIB_REF_MS = 15.0

WORKLOADS = {
    "failover_3des": "24 3DES handsets on 4 shards, every shard killed once: "
                     "the only workload where snapshot restore, journal "
                     "recovery, resumption and migration run",
    "mcommerce_stream": "24 handsets on 3 healthy shards leading with A5/1, "
                        "Grain, Trivium and RC4: per-record stream re-keying "
                        "that the 3DES workload never does",
    "handshake_storm": "96 handsets, one 32 B request each, AES and RC4: "
                       "session setup (RSA, PRF/HMAC keying, first "
                       "checkpoint) dominates",
    "handset_records": "WTLS record round trips at 64 B and 1 KiB over five "
                       "suites with no fleet, no 3DES and the probe dark",
}

#: ``(name, unit, better, bound)``: the bound is the share of the base
#: median by which the metric may get worse before a change counts as
#: a regression.  Each is at least three times the spread between the
#: quartiles of ten runs with different seeds, as measured when the
#: benchmark was defined.  Set-up time, the noisiest (it reads files and
#: is scaled by one calibration reading), gets the widest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.15),
    ("requests_per_s", "req/s", "higher", 0.15),
    ("handshake_ms_p50", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Layer -> ``[(target, extra count)]``.  A target is
#: ``"module:function"`` or ``"module:Class.method"``; the traced run
#: wraps each one.  An extra count adds one per call under
#: ``<layer>.<extra>``, except ``bytes``, which adds the length of the
#: data argument.
LAYERS = {
    "crypto.des": [
        ("repro.crypto.fastpath:des_crypt_block", "blocks"),
        ("repro.crypto.fastpath:des_expand_key", None),
        ("repro.crypto.des:expand_key", None),
        ("repro.crypto.des:DES.__init__", None),
        ("repro.crypto.des:DES.encrypt_block", None),
        ("repro.crypto.des:DES.decrypt_block", None),
        ("repro.crypto.tdes:TripleDES.__init__", None),
        ("repro.crypto.tdes:TripleDES.encrypt_block", None),
        ("repro.crypto.tdes:TripleDES.decrypt_block", None),
    ],
    "crypto.aes": [
        ("repro.crypto.aes:AES.__init__", None),
        ("repro.crypto.aes:AES.encrypt_block", "blocks"),
        ("repro.crypto.aes:AES.decrypt_block", "blocks"),
    ],
    "crypto.rc4": [
        ("repro.crypto.rc4:RC4.__init__", "inits"),
        ("repro.crypto.rc4:RC4.process", "bytes"),
    ],
    "crypto.a51": [
        ("repro.crypto.a51:A51.__init__", "inits"),
        ("repro.crypto.a51:A51.process", "bytes"),
    ],
    "crypto.grain": [
        ("repro.crypto.grain:Grain.__init__", "inits"),
        ("repro.crypto.grain:Grain.process", "bytes"),
    ],
    "crypto.trivium": [
        ("repro.crypto.trivium:Trivium.__init__", "inits"),
        ("repro.crypto.trivium:Trivium.process", "bytes"),
    ],
    "crypto.modes": [
        ("repro.crypto.modes:CBC.encrypt", None),
        ("repro.crypto.modes:CBC.decrypt", None),
        ("repro.crypto.modes:CBC.encrypt_next", None),
        ("repro.crypto.modes:CBC.decrypt_next", None),
    ],
    "crypto.hmac": [
        ("repro.crypto.hmac:HMAC.__init__", "keyings"),
        ("repro.crypto.hmac:HMAC.update", None),
        ("repro.crypto.hmac:HMAC.digest", None),
        ("repro.crypto.hmac:HMAC.mac", None),
        ("repro.crypto.hmac:HMAC.copy", None),
        ("repro.crypto.hmac:hmac", None),
        ("repro.crypto.hmac:hmac_verify", None),
    ],
    "crypto.rsa": [
        ("repro.crypto.rsa:RSAPrivateKey.decrypt", "private_ops"),
        ("repro.crypto.rsa:RSAPrivateKey.sign", "private_ops"),
        ("repro.crypto.rsa:RSAPublicKey.encrypt", None),
        ("repro.crypto.rsa:RSAPublicKey.verify", None),
    ],
    "crypto.keygen": [
        ("repro.crypto.rsa:generate_keypair", None),
    ],
    "crypto.rng": [
        ("repro.crypto.rng:DeterministicDRBG." + method, None)
        for method in ("__init__", "random_bytes", "getrandbits", "randrange",
                       "randint", "random", "gauss", "choice", "shuffle",
                       "nonzero_bytes")
    ],
    "protocols.kdf": [
        ("repro.protocols.kdf:" + function, None)
        for function in ("p_hash", "prf", "master_secret", "derive_key_block",
                         "finished_verify_data")
    ],
    "protocols.handshake": [
        ("repro.protocols.handshake:run_handshake", None),
    ],
    "protocols.records": [
        ("repro.protocols.records:RecordEncoder.encode", "records"),
        ("repro.protocols.records:RecordEncoder.encode_batch", None),
        ("repro.protocols.records:RecordDecoder.decode", "records"),
        ("repro.protocols.records:RecordDecoder.decode_batch", None),
    ],
    "protocols.wtls": [
        ("repro.protocols.wtls:wtls_connect", None),
        ("repro.protocols.wtls:WTLSRecordEncoder.__init__", None),
        ("repro.protocols.wtls:WTLSRecordEncoder.encode", "records"),
        ("repro.protocols.wtls:WTLSRecordEncoder.encode_batch", None),
        ("repro.protocols.wtls:WTLSRecordDecoder.__init__", None),
        ("repro.protocols.wtls:WTLSRecordDecoder.decode", "records"),
        ("repro.protocols.wtls:WTLSRecordDecoder.decode_batch", None),
    ] + [
        ("repro.protocols.wtls:WTLSConnection." + method, None)
        for method in ("send", "receive", "send_batch", "receive_batch",
                       "receive_next")
    ],
    # Only the abbreviated handshake: ``cache_session`` mints a ticket at
    # every attach and stays in the caller's self time, so this layer
    # runs only where sessions actually resume.
    "protocols.resumption": [
        ("repro.protocols.resumption:resume", None),
    ],
    "protocols.gateway_runtime": [
        ("repro.protocols.gateway_runtime:GatewayRuntime." + method, None)
        for method in ("step", "submit", "send_control_reply",
                       "flush_all_replies")
    ],
    "fleet.scheduler": [
        ("repro.fleet.scheduler:EventScheduler.run_batch", "batches"),
        ("repro.fleet.scheduler:EventScheduler.run", None),
    ],
    "fleet.snapshot": [
        ("repro.fleet.snapshot:capture_connection", None),
        ("repro.fleet.snapshot:restore_connection", None),
        ("repro.fleet.snapshot:SessionSnapshot.to_bytes", None),
    ],
    "fleet.journal": [
        ("repro.fleet.journal:CheckpointJournal.append", None),
        ("repro.fleet.journal:CheckpointJournal.recover", None),
        ("repro.fleet.journal:CheckpointJournal.tear_tail", None),
    ],
    "fleet.runtime": [
        ("repro.fleet.runtime:ShardedFleet." + method, None)
        for method in ("__init__", "alive_shards", "attach_session", "handset",
                       "submit_at", "apply_plan", "quiescent", "run",
                       "checkpoints_written", "journal_evictions",
                       "journal_torn_records", "runtime_totals",
                       "collect_replies")
    ],
    "observability.spans": [
        ("repro.observability.spans:Telemetry.start_span", "spans"),
    ] + [
        ("repro.observability.spans:Telemetry." + method, None)
        for method in ("end_span", "span", "event", "add_cycles",
                       "add_energy_mj", "abort_where", "abort_span")
    ],
    "observability.attribution": [
        ("repro.observability.attribution:reconcile_energy", None),
        ("repro.observability.metrics:export_fleet", None),
    ],
    "hardware.energy": [
        ("repro.hardware.battery:Battery.drain_mj", None),
    ] + [
        ("repro.hardware.energy:EnergyModel." + method, None)
        for method in ("transmit_mj", "receive_mj", "frame_transmit_mj",
                       "frame_receive_mj", "security_mj", "transaction_mj",
                       "bulk_crypto_mj", "rsa_private_mj", "rsa_public_mj")
    ],
}

#: Per-layer metrics the program's own counters give (the workload
#: reads them after each iteration) rather than the wrappers.
PROGRAM_COUNTERS = (
    ("protocols.wtls.discarded", "count", "lower"),
    ("fleet.journal.checkpoints_per_request", "ckpt/req", "lower"),
    ("fleet.snapshot.migrations_warm", "count", "higher"),
    ("fleet.snapshot.migrations_cold_resume", "count", "lower"),
    ("fleet.snapshot.migrations_cold_full", "count", "lower"),
    ("fleet.snapshot.warm_share", "fraction", "higher"),
)

_EXTRA_UNITS = {"bytes": "B"}

#: Metrics of the traced run that are not a single layer's.
TRACE_METRICS = (
    ("protocols.handshake.session_ms_p90", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("host.calib_ms", "ms", "lower"),
)


def layer_extras(layer: str):
    """The extra count names of one layer, in table order."""
    seen = []
    for _, extra in LAYERS[layer]:
        if extra is not None and extra not in seen:
            seen.append(extra)
    return seen


def per_layer_metrics():
    """``(name, unit, better)`` of every per-layer metric."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
        for extra in layer_extras(layer):
            out.append((f"{layer}.{extra}", _EXTRA_UNITS.get(extra, "count"),
                        "lower"))
    return out + list(PROGRAM_COUNTERS) + list(TRACE_METRICS)
