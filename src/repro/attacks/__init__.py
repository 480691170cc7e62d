"""Attack simulators and countermeasures for §3.4's threat taxonomy.

Physical/side-channel attacks (timing, SPA/DPA/CPA, fault induction)
run against the *instrumented implementations* in :mod:`repro.crypto`;
protocol attacks run against our own WEP stack; software attacks run
through the enforcement paths of :mod:`repro.core.secure_execution`.
Every attack's success or failure is computed by doing it, and each
has a paired countermeasure demonstrated to defeat it.
"""

from .._lazy import lazy_exports

__all__ = [
    "TimingAttack", "TimingAttackResult", "measure_sqm", "rsa_verifier",
    "exponent_hamming_weight_from_trace",
    "DPAResult", "CPAResult", "MaskedAES",
    "acquire_des_traces", "acquire_aes_traces",
    "dpa_attack_des", "cpa_attack_aes",
    "FaultInjector", "bellcore_attack", "differential_fault_attack",
    "recover_private_key",
    "KeystreamHarvester", "bitflip_forgery", "IVCollisionExperiment",
    "run_iv_collision_experiment",
    "AttackOutcome", "trojan_key_theft", "application_patching",
    "invocation_flood", "firmware_tampering", "unsigned_secure_install",
    "run_standard_campaign",
    "BlindedRSA", "constant_time_decrypt_raw", "verified_crt_sign",
    "decrypt_block", "recover_plaintext", "make_wtls_oracle", "OracleStats",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".countermeasures": "BlindedRSA constant_time_decrypt_raw "
                        "verified_crt_sign",
    ".fault": "FaultInjector bellcore_attack differential_fault_attack "
              "recover_private_key",
    ".padding_oracle": "OracleStats decrypt_block make_wtls_oracle "
                       "recover_plaintext",
    ".power": "CPAResult DPAResult MaskedAES acquire_aes_traces "
              "acquire_des_traces cpa_attack_aes dpa_attack_des",
    ".software": "AttackOutcome application_patching firmware_tampering "
                 "invocation_flood run_standard_campaign trojan_key_theft "
                 "unsigned_secure_install",
    ".timing": "TimingAttack TimingAttackResult "
               "exponent_hamming_weight_from_trace measure_sqm rsa_verifier",
    ".wep_attacks": "IVCollisionExperiment KeystreamHarvester bitflip_forgery "
                    "run_iv_collision_experiment",
})
