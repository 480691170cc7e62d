"""The paper's core content: challenge models and the secure platform.

Quantitative challenge models (§3): the Figure 3 processing-gap
surface, the Figure 4 battery-life analysis, and the Figure 2 protocol
evolution timeline.  Platform architecture (§4): the Figure 1 concern
taxonomy, the Figure 5 layered hierarchy, the Figure 6 modular base
architecture, secure boot, key storage, the two-world secure execution
environment, biometric user identification, DRM, and the complete
:class:`~repro.core.appliance.MobileAppliance` composition.
"""

from .._lazy import lazy_exports

__all__ = [
    "MobileAppliance", "provision_appliance", "ApplianceLocked",
    "ModularBaseArchitecture", "SecurityFirmwareAPI", "SecureMemory",
    "reference_architecture",
    "Concern", "AttackClass", "ConcernProfile", "PROFILES",
    "coverage_table", "verify_mechanisms_importable",
    "SecurityLayer", "default_stack", "validate_stack", "dependency_edges",
    "EVENTS", "ProtocolEvent", "protocols", "events_for",
    "cumulative_revisions", "mean_revision_interval", "domain_cadence",
    "algorithm_introduction", "required_algorithms_by",
    "GapPoint", "GapSurface", "compute_surface", "gap_factor",
    "max_sustainable_rate_mbps", "widening_gap_series",
    "stronger_crypto_demand",
    "BatteryLifeReport", "figure4_report", "transactions_until_empty",
    "simulate_transactions", "battery_gap_series",
    "SecureKeyStore", "KeyPolicy", "KeyUsage", "World", "AccessDenied",
    "SecureBootROM", "BootStage", "BootReport", "BootFailure",
    "VendorSigner", "reference_chain", "expected_measurement",
    "SecureExecutionEnvironment", "TrustedApplication", "SecureAPI",
    "SecurityViolation", "MeasurementMismatch", "InvocationBudgetExceeded",
    "sign_application",
    "BiometricMatcher", "FingerSimulator", "FingerprintSample", "Template",
    "ErrorRates", "evaluate_matcher", "roc_sweep", "equal_error_rate",
    "ContentProvider", "DRMAgent", "License", "ProtectedContent",
    "UsageRules", "RightsViolation", "LicenseInvalid",
    "BatteryAwarePolicy", "MissionSimulator", "MissionReport",
    "SuiteChoice", "compare_policies",
    "MalwareFilter", "MalwareDetected", "ScanVerdict", "Signature",
    "install_with_scan",
    "SecureStorage", "FlashDevice", "StorageTampered", "theft_scenario",
    "TamperMesh", "TamperResponder", "EnvironmentEvent", "ProbingAttacker",
    "ApplianceSupervisor", "DegradationReport", "DegradationEvent",
    "SupervisorGaveUp", "supervise_appliance",
    "FirmwarePackage", "UpdateAgent", "UpdateRejected", "build_package",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".appliance": "ApplianceLocked MobileAppliance provision_appliance",
    ".base_architecture": "ModularBaseArchitecture SecureMemory "
                          "SecurityFirmwareAPI reference_architecture",
    ".battery_aware": "BatteryAwarePolicy MissionReport MissionSimulator "
                      "SuiteChoice compare_policies",
    ".battery_life": "BatteryLifeReport battery_gap_series figure4_report "
                     "simulate_transactions transactions_until_empty",
    ".biometrics": "BiometricMatcher ErrorRates FingerprintSample "
                   "FingerSimulator Template equal_error_rate "
                   "evaluate_matcher roc_sweep",
    ".concerns": "AttackClass Concern ConcernProfile PROFILES coverage_table "
                 "verify_mechanisms_importable",
    ".drm": "ContentProvider DRMAgent License LicenseInvalid ProtectedContent "
            "RightsViolation UsageRules",
    ".evolution": "EVENTS ProtocolEvent algorithm_introduction "
                  "cumulative_revisions domain_cadence events_for "
                  "mean_revision_interval protocols required_algorithms_by",
    ".firmware_update": "FirmwarePackage UpdateAgent UpdateRejected "
                        "build_package",
    ".gap": "GapPoint GapSurface compute_surface gap_factor "
            "max_sustainable_rate_mbps stronger_crypto_demand "
            "widening_gap_series",
    ".keystore": "AccessDenied KeyPolicy KeyUsage SecureKeyStore World",
    ".layers": "SecurityLayer default_stack dependency_edges validate_stack",
    ".malware_filter": "MalwareDetected MalwareFilter ScanVerdict Signature "
                       "install_with_scan",
    ".secure_boot": "BootFailure BootReport BootStage SecureBootROM "
                    "VendorSigner expected_measurement reference_chain",
    ".secure_execution": "InvocationBudgetExceeded MeasurementMismatch "
                         "SecureAPI SecureExecutionEnvironment "
                         "SecurityViolation TrustedApplication "
                         "sign_application",
    ".secure_storage": "FlashDevice SecureStorage StorageTampered "
                       "theft_scenario",
    ".supervisor": "ApplianceSupervisor DegradationEvent DegradationReport "
                   "SupervisorGaveUp supervise_appliance",
    ".tamper_response": "EnvironmentEvent ProbingAttacker TamperMesh "
                        "TamperResponder",
})
