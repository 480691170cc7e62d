"""Embedded hardware substrate.

Models everything the paper's quantitative sections need from
hardware: the processor catalog with published MIPS ratings (§3.2),
the calibrated instruction-cost model behind Figure 3, the measured
energy constants behind Figure 4, batteries and radios, and the §4.2
ladder of security-processing architectures (software → ISA
extensions → crypto accelerator → programmable protocol engine).

The package re-exports nothing: import from its modules
(``from repro.hardware.battery import Battery``).
"""

__all__ = []
