"""repro — reproduction of "Securing Mobile Appliances: New Challenges
for the System Designer" (Raghunathan, Ravi, Hattangady, Quisquater;
DATE 2003).

The paper is a survey/position paper quantifying the challenges of
securing battery-powered mobile appliances.  This library builds every
system it describes — from-scratch cryptography, the 2003-era protocol
landscape (mini-TLS, WTLS, WEP, IPSec-ESP, GSM-style bearer security,
the WAP gateway), embedded hardware cost/energy models calibrated to
the paper's published numbers, the §3.4 attack simulators with their
countermeasures, and the §4 secure platform architecture — so that
every figure in the paper regenerates from first principles.

Subpackages
-----------
``repro.crypto``
    DES/3DES, AES, RC4, RC2, SHA-1, MD5, HMAC, RSA, DH, modes,
    randomness, the algorithm registry, side-channel instrumentation.
``repro.protocols``
    Record layers, handshakes, cipher-suite negotiation, WTLS, WEP,
    ESP, bearer security, the WAP gateway.
``repro.hardware``
    Processor catalog, instruction/energy cost models, batteries,
    radios, and the §4.2 security-processing architecture ladder.
``repro.attacks``
    Timing, SPA/DPA/CPA, fault induction, WEP breaks, software
    attacks; blinding/masking/verification countermeasures.
``repro.core``
    The figures' models (gap surface, battery life, protocol
    evolution), the concern taxonomy and layer hierarchy, secure
    boot, key storage, the secure execution environment, biometrics,
    DRM, and the composed :class:`~repro.core.appliance.MobileAppliance`.
``repro.analysis``
    Figure regeneration, table rendering, sweep harness.
``repro.observability``
    The unified telemetry plane: virtual-time spans, the metrics
    registry with ledger adapters, energy/cycle attribution, and the
    deterministic exports behind ``python -m repro run telemetry``.
``repro.conformance``
    The conformance plane: official-vector registry, differential
    oracles, the handshake state-machine model checker, and the
    seeded wire-format fuzzer behind ``python -m repro run conformance``.
``repro.fleet``
    The crash-fault-tolerance plane: the sharded gateway fleet on one
    batched scheduler, durable session checkpoints, crash injection,
    and deterministic failover behind ``python -m repro run failover``.

Subpackages load on first use: ``import repro`` loads none of them,
and each package resolves its exported names on first attribute
access (PEP 562), loading only the submodule that defines the name.

Quickstart
----------
>>> from repro.core import provision_appliance
>>> appliance = provision_appliance()
>>> appliance.boot().succeeded
True
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": "analysis",
    ".attacks": "attacks",
    ".conformance": "conformance",
    ".core": "core",
    ".crypto": "crypto",
    ".fleet": "fleet",
    ".hardware": "hardware",
    ".observability": "observability",
    ".protocols": "protocols",
})
