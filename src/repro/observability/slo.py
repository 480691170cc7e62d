"""Declarative SLOs with multi-window burn-rate alerting.

The SRE shape, on the virtual clock: an :class:`SloSpec` declares an
objective (availability, a latency quantile, or an
energy-per-served-request budget); the :class:`SloEngine` consumes one
ratio per evaluation window and converts it to a **burn rate** — how
many times faster than sustainable the error budget is being spent:

* availability / latency: ``burn = bad_fraction / (1 - objective)``
  (burn 1.0 = exactly on budget, 20.0 = a window that alone would eat
  5% of the budget at objective 0.95);
* energy budget: ``burn = consumed_mj / (budget_mj_per_request *
  served)`` — spend rate over sustainable rate.

Alerting is multi-window (the fast/slow pattern): a policy fires only
when *both* the short-window average (paging on real, current pain)
and the long-window average (suppressing one-window blips) exceed
their thresholds.  Alerts land in a **latched ledger**: firings and
clears are appended, never rewritten, so the report shows every alert
the run ever raised even if the burn subsided before the end — an ops
report that forgets the incident is worse than none.

Everything is deterministic: pure arithmetic over window ratios, no
wall clock, no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Cap on a single window's burn rate: a window with served == 0 but
#: nonzero spend would otherwise divide by zero, and "infinitely over
#: budget" renders poorly in a byte-stable report.
BURN_CAP = 1000.0

VALID_KINDS = ("availability", "latency_quantile", "energy_budget")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective.

    ``objective`` is the good-event fraction target for ratio SLOs
    (0.95 = 95% of requests good); ``threshold`` carries the latency
    bound (seconds) for ``latency_quantile`` or the per-served-request
    energy budget (mJ) for ``energy_budget``.
    """

    name: str
    kind: str
    objective: float = 0.95
    threshold: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind != "energy_budget" and not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be a fraction in (0, 1)")
        if self.kind in ("latency_quantile", "energy_budget") \
                and self.threshold <= 0.0:
            raise ValueError(f"{self.kind} needs a positive threshold")

    @property
    def error_budget(self) -> float:
        """Tolerable bad-event fraction (ratio SLOs)."""
        return 1.0 - self.objective

    def burn(self, good: float, total: float) -> float:
        """One window's burn rate from a good/total event ratio."""
        if total <= 0:
            return 0.0
        bad_fraction = max(0.0, (total - good) / total)
        return min(BURN_CAP, bad_fraction / self.error_budget)

    def burn_budget(self, consumed: float, served: float) -> float:
        """One window's burn rate from an energy spend
        (``energy_budget`` specs only)."""
        if self.kind != "energy_budget":
            raise ValueError("burn_budget is for energy_budget specs")
        allowed = self.threshold * served
        if allowed <= 0.0:
            return 0.0 if consumed <= 0.0 else BURN_CAP
        return min(BURN_CAP, consumed / allowed)


@dataclass(frozen=True)
class BurnRatePolicy:
    """One fast/slow multi-window alerting rule."""

    name: str = "page"
    fast_windows: int = 1      # windows averaged for the fast signal
    slow_windows: int = 4      # windows averaged for the slow signal
    fast_burn: float = 10.0    # both averages must exceed their
    slow_burn: float = 2.0     # threshold for the alert to fire
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ValueError("need 1 <= fast_windows <= slow_windows")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")


@dataclass(frozen=True)
class Alert:
    """One latched ledger entry (a firing or a clear)."""

    at_s: float
    slo: str
    policy: str
    severity: str
    state: str          # "firing" | "cleared"
    burn_fast: float
    burn_slow: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": round(self.at_s, 6),
            "slo": self.slo,
            "policy": self.policy,
            "severity": self.severity,
            "state": self.state,
            "burn_fast": round(self.burn_fast, 6),
            "burn_slow": round(self.burn_slow, 6),
        }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class SloEngine:
    """Evaluates specs window by window; owns the latched ledger."""

    def __init__(self, specs: List[SloSpec],
                 policies: Optional[List[BurnRatePolicy]] = None) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("SLO names must be unique")
        self.specs: Dict[str, SloSpec] = {spec.name: spec for spec in specs}
        self.policies = policies if policies is not None \
            else [BurnRatePolicy()]
        #: Per-spec window history: (start_s, end_s, burn, good, total).
        self._history: Dict[str, List[Tuple[float, float, float,
                                            float, float]]] = {
            name: [] for name in self.specs}
        #: The latched ledger (firings and clears, append-only).
        self.alerts: List[Alert] = []
        self._firing: Dict[Tuple[str, str], bool] = {}

    # -- feeding -------------------------------------------------------------

    def record_window(self, name: str, start_s: float, end_s: float,
                      good: float, total: float) -> float:
        """Feed one window's good/total ratio; returns its burn rate."""
        spec = self.specs[name]
        burn = spec.burn(good, total)
        self._append(spec, start_s, end_s, burn, good, total)
        return burn

    def record_budget_window(self, name: str, start_s: float, end_s: float,
                             consumed: float, served: float) -> float:
        """Feed one window's energy spend (``energy_budget`` specs)."""
        spec = self.specs[name]
        burn = spec.burn_budget(consumed, served)
        self._append(spec, start_s, end_s, burn, served, served)
        return burn

    def _append(self, spec: SloSpec, start_s: float, end_s: float,
                burn: float, good: float, total: float) -> None:
        history = self._history[spec.name]
        history.append((start_s, end_s, burn, good, total))
        burns = [row[2] for row in history]
        for policy in self.policies:
            fast = _mean(burns[-policy.fast_windows:])
            slow = _mean(burns[-policy.slow_windows:])
            firing = fast > policy.fast_burn and slow > policy.slow_burn
            key = (spec.name, policy.name)
            was_firing = self._firing.get(key, False)
            if firing and not was_firing:
                self.alerts.append(Alert(
                    at_s=end_s, slo=spec.name, policy=policy.name,
                    severity=policy.severity, state="firing",
                    burn_fast=fast, burn_slow=slow))
            elif not firing and was_firing:
                self.alerts.append(Alert(
                    at_s=end_s, slo=spec.name, policy=policy.name,
                    severity=policy.severity, state="cleared",
                    burn_fast=fast, burn_slow=slow))
            self._firing[key] = firing

    # -- reading -------------------------------------------------------------

    def ever_fired(self, name: str) -> bool:
        """Whether any policy ever fired for this spec (latched)."""
        return any(alert.slo == name and alert.state == "firing"
                   for alert in self.alerts)

    def summary(self) -> Dict[str, object]:
        """JSON-ready per-spec summary plus the full alert ledger."""
        specs: Dict[str, object] = {}
        for name in sorted(self.specs):
            spec = self.specs[name]
            history = self._history[name]
            burns = [row[2] for row in history]
            good = sum(row[3] for row in history)
            total = sum(row[4] for row in history)
            specs[name] = {
                "kind": spec.kind,
                "objective": spec.objective,
                "threshold": spec.threshold,
                "windows": len(history),
                "good": round(good, 6),
                "total": round(total, 6),
                "attainment": round(good / total, 6) if total else 1.0,
                "max_burn": round(max(burns), 6) if burns else 0.0,
                "mean_burn": round(_mean(burns), 6),
                "ever_fired": self.ever_fired(name),
            }
        return {
            "specs": specs,
            "policies": [{
                "name": policy.name,
                "fast_windows": policy.fast_windows,
                "slow_windows": policy.slow_windows,
                "fast_burn": policy.fast_burn,
                "slow_burn": policy.slow_burn,
                "severity": policy.severity,
            } for policy in self.policies],
            "alerts": [alert.as_dict() for alert in self.alerts],
        }
