"""Application workload planes driving the protocol stacks.

The paper frames the appliance problem around *workloads*: §2's
m-commerce transaction is the canonical one ("a secure transaction
needs to be executed within a reasonable amount of time, without
exhausting the battery").  This package turns that sentence into
seeded, replayable traffic — session mixes, heavy-tailed arrivals,
handset battery classes — aimed at the sharded gateway fleet.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".mcommerce": "BATTERY_CLASSES SESSION_KINDS plan_workload run_mcommerce",
})
