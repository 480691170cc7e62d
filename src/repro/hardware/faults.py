"""Seeded fault injection for the appliance's hardware domain.

The protocol-side harness (:mod:`repro.protocols.faults`) made the
*link* hostile; this module makes the *device* hostile, per the paper's
§3.3–§3.4 operating conditions: crypto engines die (transiently after a
glitch, or permanently from electromigration/latch-up), battery packs
sag far below their ledger value mid-mission, and fault-injection
campaigns deliver clock/voltage excursions that may or may not clear
the tamper mesh's sensor envelope.

Everything is driven by a virtual-time schedule and/or a
:class:`~repro.crypto.rng.DeterministicDRBG`, so — like the link-fault
harness — **every hardware failure schedule is an exact function of its
seed** and the supervisor's responses can be tested byte-for-byte.

The consumer is :class:`repro.core.supervisor.ApplianceSupervisor`,
which polls a :class:`FaultPlan` as virtual time advances and converts
each failure into a *measured degraded mode* instead of an uncaught
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..crypto.rng import DeterministicDRBG
from .battery import Battery

if TYPE_CHECKING:  # deferred: hardware must stay importable before core
    from ..core.tamper_response import EnvironmentEvent


class AcceleratorFailure(Exception):
    """A hardware crypto engine died mid-operation.

    Distinct from :class:`~repro.hardware.accelerators.UnsupportedWorkload`
    (a capability gap known before dispatch): this is the engine
    *breaking* — the supervisor reacts to both by walking down the
    architecture ladder, but only this one marks the engine dead.
    """


@dataclass
class HardwareFaultLog:
    """Ledger of every hardware fault the plan injected."""

    entries: List[Tuple[float, str, str]] = field(default_factory=list)

    def record(self, time_s: float, kind: str, detail: str) -> None:
        """Append one (virtual time, kind, detail) row."""
        self.entries.append((time_s, kind, detail))

    def kinds(self) -> List[str]:
        """The kinds injected, in order."""
        return [kind for _, kind, _ in self.entries]


class FlakyEngine:
    """Wraps any §4.2 ladder engine with a failure process.

    Two composable failure modes:

    * a **scheduled outage**: from ``fail_at_s`` (until ``recover_at_s``
      when given, else forever) every ``execute`` raises
      :class:`AcceleratorFailure` — the permanent-death / long-brownout
      case;
    * a **seeded transient** process: each ``execute`` independently
      fails with probability ``transient_rate`` — the glitch-induced
      case.

    ``supports`` still answers from the wrapped engine: a real driver
    only discovers a dead datapath when the operation faults, which is
    exactly the condition the supervisor's ladder walk must handle.
    """

    def __init__(self, inner, clock, *, fail_at_s: Optional[float] = None,
                 recover_at_s: Optional[float] = None,
                 transient_rate: float = 0.0, seed: int = 0,
                 log: Optional[HardwareFaultLog] = None) -> None:
        if not 0.0 <= transient_rate <= 1.0:
            raise ValueError("transient_rate must be a probability")
        self.inner = inner
        self.clock = clock
        self.fail_at_s = fail_at_s
        self.recover_at_s = recover_at_s
        self.transient_rate = transient_rate
        self.log = log
        self.failures = 0
        self.transient_failures = 0
        self._drbg = DeterministicDRBG(("flaky-engine", seed).__repr__())

    @property
    def name(self) -> str:
        """Engine name, marked as fault-wrapped."""
        return f"flaky({self.inner.name})"

    @property
    def flexibility(self) -> float:
        """Delegates to the wrapped engine."""
        return self.inner.flexibility

    def in_outage(self, now: Optional[float] = None) -> bool:
        """Whether the scheduled outage window covers ``now``."""
        if self.fail_at_s is None:
            return False
        now = self.clock.now if now is None else now
        if now < self.fail_at_s:
            return False
        return self.recover_at_s is None or now < self.recover_at_s

    def supports(self, workload) -> bool:
        """Capability check (failure only manifests at execution)."""
        return self.inner.supports(workload)

    def execute(self, workload):
        """Run the workload, unless the failure process strikes first."""
        now = self.clock.now
        if self.in_outage(now):
            self.failures += 1
            if self.log is not None:
                self.log.record(now, "accelerator-outage", self.name)
            raise AcceleratorFailure(
                f"{self.name}: scheduled outage at t={now:.3f}s")
        if self.transient_rate > 0.0 and \
                self._drbg.random() < self.transient_rate:
            self.failures += 1
            self.transient_failures += 1
            if self.log is not None:
                self.log.record(now, "accelerator-transient", self.name)
            raise AcceleratorFailure(
                f"{self.name}: transient fault at t={now:.3f}s")
        return self.inner.execute(workload)


@dataclass
class BatteryBrownout:
    """A scheduled charge collapse (§3.3's battery gap, weaponised).

    At ``at_s`` virtual seconds the pack sags to ``to_fraction`` of
    capacity — modelling cell aging, cold, or a parasitic drain the
    energy ledger never saw.  Idempotent: fires once, and never *adds*
    charge (a battery already below the target is left alone).
    """

    battery: Battery
    at_s: float
    to_fraction: float = 0.05
    applied: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.to_fraction <= 1.0:
            raise ValueError("to_fraction must be in [0, 1]")

    def poll(self, now: float,
             log: Optional[HardwareFaultLog] = None) -> bool:
        """Apply the sag if due; returns True the one time it fires."""
        if self.applied or now < self.at_s:
            return False
        target_j = self.battery.capacity_j * self.to_fraction
        if self.battery.remaining_j > target_j:
            self.battery.remaining_j = target_j
        self.applied = True
        if log is not None:
            log.record(now, "battery-brownout",
                       f"sagged to {self.to_fraction:.0%} of capacity")
        return True


@dataclass(frozen=True)
class ScheduledGlitch:
    """One environmental excursion due at a virtual time."""

    at_s: float
    event: EnvironmentEvent


@dataclass
class GlitchCampaign:
    """A seeded stream of clock/voltage excursions (§3.4 fault attacks).

    ``seeded`` draws a campaign whose events are each *sub-threshold*
    (inside the tamper mesh's sensor envelope — the dangerous Bellcore
    regime) with probability ``1 - p_super`` and super-threshold (the
    mesh trips, keys zeroise) otherwise.  Thresholds mirror the default
    sensor suite of :mod:`repro.core.tamper_response`.
    """

    glitches: List[ScheduledGlitch] = field(default_factory=list)
    delivered: int = 0

    @classmethod
    def seeded(cls, seed: int = 0, count: int = 8, start_s: float = 1.0,
               period_s: float = 1.0,
               p_super: float = 0.25) -> "GlitchCampaign":
        """Draw a deterministic campaign from the seed."""
        from ..core.tamper_response import EnvironmentEvent

        if not 0.0 <= p_super <= 1.0:
            raise ValueError("p_super must be a probability")
        drbg = DeterministicDRBG(("glitch-campaign", seed).__repr__())
        thresholds = {"clock": 0.5, "voltage": 0.3}
        glitches = []
        for index in range(count):
            kind = "clock" if drbg.random() < 0.5 else "voltage"
            threshold = thresholds[kind]
            if drbg.random() < p_super:
                magnitude = threshold * (1.2 + 1.8 * drbg.random())
            else:
                magnitude = threshold * (0.2 + 0.7 * drbg.random())
            glitches.append(ScheduledGlitch(
                at_s=start_s + index * period_s,
                event=EnvironmentEvent(kind, round(magnitude, 6))))
        return cls(glitches=glitches)

    def due(self, now: float) -> List[EnvironmentEvent]:
        """Pop and return every event scheduled at or before ``now``."""
        ready = [g.event for g in self.glitches[self.delivered:]
                 if g.at_s <= now]
        self.delivered += len(ready)
        return ready


@dataclass
class FaultPlan:
    """Everything that will go wrong, on one virtual timeline.

    Aggregates brownouts and glitch campaigns behind a single
    ``poll(now)`` the supervisor calls as time advances; engine faults
    (:class:`FlakyEngine`) fire at their own call sites but share the
    plan's :class:`HardwareFaultLog`.
    """

    brownouts: List[BatteryBrownout] = field(default_factory=list)
    campaigns: List[GlitchCampaign] = field(default_factory=list)
    log: HardwareFaultLog = field(default_factory=HardwareFaultLog)

    def add_brownout(self, brownout: BatteryBrownout) -> "FaultPlan":
        """Schedule a battery sag."""
        self.brownouts.append(brownout)
        return self

    def add_campaign(self, campaign: GlitchCampaign) -> "FaultPlan":
        """Schedule a glitch campaign."""
        self.campaigns.append(campaign)
        return self

    def poll(self, now: float) -> List[EnvironmentEvent]:
        """Apply due brownouts; return due environmental events."""
        for brownout in self.brownouts:
            brownout.poll(now, log=self.log)
        events: List[EnvironmentEvent] = []
        for campaign in self.campaigns:
            for event in campaign.due(now):
                self.log.record(now, "glitch",
                                f"{event.kind} magnitude {event.magnitude}")
                events.append(event)
        return events


def wrap_engines(engines: Sequence, clock, *, fail_at_s: float,
                 recover_at_s: Optional[float] = None, seed: int = 0,
                 log: Optional[HardwareFaultLog] = None) -> List:
    """Wrap every hardware engine (software stays pristine) in a
    :class:`FlakyEngine` sharing one outage schedule — the 'the whole
    security coprocessor went away' scenario."""
    from .accelerators import SoftwareEngine

    wrapped = []
    for index, engine in enumerate(engines):
        if isinstance(engine, SoftwareEngine):
            wrapped.append(engine)
        else:
            wrapped.append(FlakyEngine(
                engine, clock, fail_at_s=fail_at_s,
                recover_at_s=recover_at_s, seed=seed + index, log=log))
    return wrapped
