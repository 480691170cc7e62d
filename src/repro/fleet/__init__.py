"""Crash-recoverable sharded gateway fleet.

The scaling-and-availability plane: N
:class:`~repro.protocols.gateway_runtime.GatewayRuntime` shards on one
batched discrete-event scheduler, durable per-session checkpoints in a
write-ahead journal, seeded crash injection with watchdog detection,
and deterministic failover (warm from checkpoint, cold via the
resumption / re-handshake paths).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".journal": "CheckpointJournal",
    ".ring": "ConsistentRing",
    ".runtime": "ShardedFleet",
    ".scenario": "run_failover",
    ".scheduler": "EventScheduler",
    ".snapshot": "SessionSnapshot capture_connection restore_connection",
})
