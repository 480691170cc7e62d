"""Attack simulators and countermeasures for §3.4's threat taxonomy.

Physical/side-channel attacks (timing, SPA/DPA/CPA, fault induction)
run against the *instrumented implementations* in :mod:`repro.crypto`;
protocol attacks run against our own WEP stack; software attacks run
through the enforcement paths of :mod:`repro.core.secure_execution`.
Every attack's success or failure is computed by doing it, and each
has a paired countermeasure demonstrated to defeat it.

The package re-exports nothing: import from its modules
(``from repro.attacks.power import cpa_attack_aes``).
"""

__all__ = []
