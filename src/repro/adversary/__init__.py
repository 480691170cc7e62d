"""The adversarial traffic plane: seeded attacker populations sharing
the gateway's virtual clock with benign load.

The paper's appliance must keep serving legitimate users *while under
attack* on a battery budget (§2 "preventing denial-of-service
attacks", §3.3 the battery gap).  PR 3's fault injection and PR 5's
fuzzer exercise the stacks one blow at a time; this package promotes
them into a continuous adversary plane: each attacker class is a
generator with its own arrival process, seed, and energy cost, ticked
by the :class:`~repro.protocols.gateway_runtime.GatewayRuntime` event
loop, and the deliverable is a byte-stable **survivability report**.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".scenario": "run_survivability",
})
