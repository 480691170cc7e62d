"""Battery model: capacity ledger and the slow-growth trend of §3.3.

"There has only been a slow growth (5–8 % per year) in the battery
capacities" (paper ref. [37]) while security workload energy grows
with data rates — the *battery gap*.  :class:`Battery` is a simple
energy ledger used by the transaction simulations of Figure 4;
:func:`battery_capacity_trend` projects capacity under the paper's
growth band for the battery-gap bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..observability import probe


class BatteryEmpty(Exception):
    """Raised when a drain request exceeds the remaining charge.

    Carries the refused request so supervision logic
    (:mod:`repro.core.supervisor`) can decide what to degrade without
    re-querying the battery: ``requested_mj`` is what the caller asked
    for, ``remaining_mj`` what the (untouched) battery still holds.
    """

    def __init__(self, message: str, requested_mj: float = 0.0,
                 remaining_mj: float = 0.0) -> None:
        super().__init__(message)
        self.requested_mj = requested_mj
        self.remaining_mj = remaining_mj


@dataclass
class Battery:
    """An ideal energy reservoir measured in joules.

    The paper's sensor-node battery is 26 KJ; phone batteries of the
    era were ~2–4 Wh (7.2–14.4 KJ).  Self-discharge and rate-dependent
    capacity effects are out of scope (the paper's analysis is a pure
    energy ledger, and we match it).
    """

    capacity_j: float = 26_000.0
    remaining_j: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.remaining_j < 0:
            self.remaining_j = self.capacity_j

    def drain_mj(self, millijoules: float) -> None:
        """Withdraw energy; raises :class:`BatteryEmpty` if insufficient.

        The drain is transactional: a refused request leaves the charge
        exactly as it was (the check precedes the withdrawal), and the
        exception carries the refused amounts, so brownout supervision
        can act on a consistent ledger.
        """
        if millijoules < 0:
            raise ValueError("cannot drain negative energy")
        joules = millijoules / 1000.0
        if joules > self.remaining_j:
            raise BatteryEmpty(
                f"requested {joules:.3f} J but only "
                f"{self.remaining_j:.3f} J remain",
                requested_mj=millijoules,
                remaining_mj=self.remaining_j * 1000.0,
            )
        self.remaining_j -= joules
        # Attribute only *successful* withdrawals: refused drains leave
        # the ledger untouched, so telemetry reconciles by construction.
        telemetry = probe.active
        if telemetry is not None:
            telemetry.add_energy_mj(millijoules, kind="battery")

    def can_supply_mj(self, millijoules: float) -> bool:
        """Whether the battery can supply the requested energy."""
        return self.remaining_j >= millijoules / 1000.0

    @property
    def drained_mj(self) -> float:
        """Energy withdrawn since the last full charge, in millijoules."""
        return (self.capacity_j - self.remaining_j) * 1000.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return self.remaining_j / self.capacity_j

    def recharge(self) -> None:
        """Restore to full capacity."""
        self.remaining_j = self.capacity_j


def battery_capacity_trend(initial_j: float, years: int,
                           annual_growth: float) -> List[float]:
    """Project battery capacity year by year.

    ``annual_growth`` is a fraction (0.05–0.08 for the paper's 5–8 %
    band).  Returns ``years + 1`` values, index 0 = initial capacity.
    """
    if not 0.0 <= annual_growth <= 1.0:
        raise ValueError("annual growth must be a fraction in [0, 1]")
    return [initial_j * (1.0 + annual_growth) ** year for year in range(years + 1)]
