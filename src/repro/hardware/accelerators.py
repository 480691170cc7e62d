"""Security processing architecture options (Section 4.2).

The paper surveys a ladder of architectures trading flexibility for
efficiency:

1. **Software** on the embedded CPU — fully flexible, slowest;
2. **ISA extensions** (SmartMIPS, SecurCore, permutation instructions
   [55], symmetric-key support [56]) — software with cheaper crypto
   inner loops;
3. **Crypto hardware accelerators** (Discretix CryptoCell, Safenet
   EmbeddedIP, OMAP1510's DSP) — fixed-function offload of named
   algorithms;
4. **Programmable security protocol engines** (NEC MOSES, Safenet
   IPSec packet engine) — offload the *whole* protocol including
   packet processing, while staying reprogrammable.

Every option exposes the same interface — ``execute(workload) ->
ExecutionReport`` — so the Figure 6 / T7 / T8 benches can rank them on
identical workloads.  Speedup and energy parameters are
order-of-magnitude values for early-2000s parts (documented per
class); the paper's argument is about the *shape* of the ladder, which
survives parameter perturbation (the ablation bench sweeps them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

from .processors import Processor
from .workloads import BulkWorkload, HandshakeWorkload, SessionWorkload

Workload = Union[BulkWorkload, HandshakeWorkload, SessionWorkload]


class UnsupportedWorkload(Exception):
    """The engine cannot execute (part of) the workload."""


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of running a workload on an architecture option."""

    engine: str
    time_s: float
    energy_mj: float
    host_instructions: float  # instructions still executed on the host CPU


@dataclass
class SoftwareEngine:
    """Option 1: everything in software on the host processor."""

    processor: Processor
    name: str = "software"
    flexibility: float = 1.0  # can adopt any future algorithm via update

    def supports(self, workload: Workload) -> bool:
        """Software supports every workload."""
        return True

    def execute(self, workload: Workload) -> ExecutionReport:
        """Charge the full instruction count to the host CPU."""
        instructions = workload.total_instructions
        time_s = instructions / (self.processor.mips * 1e6)
        energy_mj = instructions * self.processor.energy_per_instruction_nj / 1e6
        return ExecutionReport(self.name, time_s, energy_mj, instructions)


@dataclass
class CryptoAccelerator:
    """Option 3: fixed-function cryptographic hardware.

    Handles only the algorithms in ``bulk_mbps`` /
    ``rsa_ops_per_s``; protocol processing stays on the host.  Energy
    is charged per byte (bulk) or per operation (RSA) at levels ~50x
    better than software on the host, typical of dedicated datapaths.
    """

    processor: Processor  # host, still runs protocol processing
    name: str = "crypto-accelerator"
    flexibility: float = 0.2  # fixed algorithm set
    bulk_mbps: Dict[str, float] = field(default_factory=lambda: {
        "DES": 120.0, "3DES": 60.0, "AES": 200.0,
        "SHA1": 250.0, "MD5": 300.0, "RC4": 150.0, "NULL": float("inf"),
    })
    bulk_uj_per_byte: float = 0.02
    rsa_ops_per_s: float = 200.0       # 1024-bit private ops (no CRT)
    rsa_mj_per_op: float = 1.0
    setup_instructions: float = 500.0  # host driver cost per request

    def supports(self, workload: Workload) -> bool:
        """True if every algorithm in the workload is in hardware."""
        if isinstance(workload, BulkWorkload):
            return workload.cipher in self.bulk_mbps and workload.mac in self.bulk_mbps
        if isinstance(workload, HandshakeWorkload):
            return True
        return self.supports(workload.handshake) and self.supports(workload.bulk)

    def _bulk(self, bulk: BulkWorkload):
        if not self.supports(bulk):
            raise UnsupportedWorkload(
                f"{self.name} lacks hardware for {bulk.cipher}/{bulk.mac}"
            )
        megabits = bulk.kilobytes * 8.192 / 1000.0
        time_s = megabits / self.bulk_mbps[bulk.cipher]
        if self.bulk_mbps[bulk.mac] != float("inf"):
            time_s += megabits / self.bulk_mbps[bulk.mac]
        energy_mj = self.bulk_uj_per_byte * bulk.kilobytes * 1024.0 / 1000.0
        host_instr = bulk.protocol_instructions + self.setup_instructions
        return time_s, energy_mj, host_instr

    def _handshake(self, hs: HandshakeWorkload):
        # Scale the 1024-bit op rating by the cubic cost law.
        scale = (hs.rsa_bits / 1024.0) ** 3 / (4.0 if hs.use_crt else 1.0)
        time_s = hs.count * scale / self.rsa_ops_per_s
        energy_mj = hs.count * self.rsa_mj_per_op * scale
        host_instr = hs.count * (
            self.setup_instructions + 1e6  # protocol/state machine stays on host
        )
        return time_s, energy_mj, host_instr

    def execute(self, workload: Workload) -> ExecutionReport:
        """Split the workload between hardware and host driver code."""
        if isinstance(workload, BulkWorkload):
            hw_time, hw_energy, host_instr = self._bulk(workload)
        elif isinstance(workload, HandshakeWorkload):
            hw_time, hw_energy, host_instr = self._handshake(workload)
        else:
            t1, e1, h1 = self._handshake(workload.handshake)
            t2, e2, h2 = self._bulk(workload.bulk)
            hw_time, hw_energy, host_instr = t1 + t2, e1 + e2, h1 + h2
        host_time = host_instr / (self.processor.mips * 1e6)
        host_energy = host_instr * self.processor.energy_per_instruction_nj / 1e6
        return ExecutionReport(
            self.name, hw_time + host_time, hw_energy + host_energy, host_instr
        )


def architecture_ladder(processor: Processor) -> list:
    """The four §4.2 options on a common host, efficiency ascending."""
    from .isa_extensions import ISAExtensionEngine
    from .protocol_engine import ProtocolEngine

    return [
        SoftwareEngine(processor),
        ISAExtensionEngine(processor),
        CryptoAccelerator(processor),
        ProtocolEngine(processor),
    ]
