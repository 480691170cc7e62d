"""Embedded hardware substrate.

Models everything the paper's quantitative sections need from
hardware: the processor catalog with published MIPS ratings (§3.2),
the calibrated instruction-cost model behind Figure 3, the measured
energy constants behind Figure 4, batteries and radios, and the §4.2
ladder of security-processing architectures (software → ISA
extensions → crypto accelerator → programmable protocol engine).
"""

from .._lazy import lazy_exports

__all__ = [
    "Processor", "CATALOG", "PENTIUM4", "STRONGARM_SA1100", "ARM7", "ARM9",
    "DRAGONBALL", "embedded_catalog",
    "BULK_IPB", "bulk_ipb", "bulk_mips_demand", "handshake_cost",
    "handshake_mips_demand", "total_mips_demand",
    "rsa_private_instructions", "rsa_public_instructions",
    "EnergyModel", "TX_MJ_PER_KB", "RX_MJ_PER_KB",
    "RSA_SECURITY_OVERHEAD_MJ_PER_KB", "SENSOR_BATTERY_KJ",
    "Battery", "BatteryEmpty", "battery_capacity_trend",
    "AcceleratorFailure", "FlakyEngine", "BatteryBrownout",
    "GlitchCampaign", "ScheduledGlitch", "FaultPlan", "HardwareFaultLog",
    "wrap_engines",
    "Radio", "BEARERS", "SENSOR_RADIO", "GSM_RADIO", "WLAN_RADIO",
    "BulkWorkload", "HandshakeWorkload", "SessionWorkload",
    "SoftwareEngine", "ISAExtensionEngine", "CryptoAccelerator",
    "ProtocolEngine", "ExecutionReport", "UnsupportedWorkload",
    "architecture_ladder",
    "HardwarePlatform", "sensor_node_platform", "pda_platform",
    "phone_platform",
    "ProgrammableProtocolEngine", "Microprogram", "Instruction",
    "EngineContext", "EngineFault", "stock_engine",
    "SystemBus", "BusRegion", "BusMaster", "BusFault",
    "provision_keys_on_bus", "dma_snoop_attack",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accelerators": "CryptoAccelerator ExecutionReport SoftwareEngine "
                     "UnsupportedWorkload architecture_ladder",
    ".battery": "Battery BatteryEmpty battery_capacity_trend",
    ".bus": "BusFault BusMaster BusRegion SystemBus dma_snoop_attack "
            "provision_keys_on_bus",
    ".cycles": "BULK_IPB bulk_ipb bulk_mips_demand handshake_cost "
               "handshake_mips_demand rsa_private_instructions "
               "rsa_public_instructions total_mips_demand",
    ".energy": "RSA_SECURITY_OVERHEAD_MJ_PER_KB RX_MJ_PER_KB "
               "SENSOR_BATTERY_KJ TX_MJ_PER_KB EnergyModel",
    ".engine_program": "EngineContext EngineFault Instruction Microprogram "
                       "ProgrammableProtocolEngine stock_engine",
    ".faults": "AcceleratorFailure BatteryBrownout FaultPlan FlakyEngine "
               "GlitchCampaign HardwareFaultLog ScheduledGlitch wrap_engines",
    ".isa_extensions": "ISAExtensionEngine",
    ".platform_builder": "HardwarePlatform pda_platform phone_platform "
                         "sensor_node_platform",
    ".processors": "ARM7 ARM9 CATALOG DRAGONBALL PENTIUM4 STRONGARM_SA1100 "
                   "Processor embedded_catalog",
    ".protocol_engine": "ProtocolEngine",
    ".radio": "BEARERS GSM_RADIO SENSOR_RADIO WLAN_RADIO Radio",
    ".workloads": "BulkWorkload HandshakeWorkload SessionWorkload",
})
