"""The appliance fault supervisor: hardware failures become degraded modes.

The paper's §3.3–§3.4 operating conditions — engines that die, batteries
that sag, glitch campaigns against the die — previously surfaced as
uncaught exceptions from whatever subsystem happened to be holding them
(:class:`~repro.hardware.faults.AcceleratorFailure` out of a workload
run, :class:`~repro.hardware.battery.BatteryEmpty` mid-handshake, a
silent :class:`~repro.core.tamper_response.TamperResponder` zeroisation
that left every later key access failing).  The
:class:`ApplianceSupervisor` is the watchdog that converts each of the
three failure classes into a *measured, recorded* degradation:

* **engine death** — the supervisor dispatches workloads down the §4.2
  :func:`~repro.hardware.accelerators.architecture_ladder` (most capable
  engine first, :class:`~repro.hardware.accelerators.SoftwareEngine`
  last); a raised failure marks the engine dead and the walk continues,
  with dead engines re-probed after ``probe_interval_s`` so transient
  faults heal;
* **battery brownout** — below the
  :class:`~repro.core.battery_aware.BatteryAwarePolicy` thresholds the
  advertised cipher suite steps down *before* a drain request can blow
  up mid-handshake, and :meth:`guarded_drain` turns
  :class:`~repro.hardware.battery.BatteryEmpty` into a clean refusal
  (the transactional battery guarantees no state was corrupted);
* **confirmed tamper** — a mesh trip zeroises the key store (the
  responder's job) and the supervisor then *re-provisions* the device
  through the caller-supplied factory (normally
  :func:`~repro.core.appliance.provision_appliance`), so the appliance
  returns to service with fresh keys instead of limping on with a
  zeroised store.

Every action lands in a :class:`DegradationReport`, so tests and
benches can assert exactly which degraded modes ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..hardware.accelerators import (
    ExecutionReport,
    SoftwareEngine,
    UnsupportedWorkload,
    architecture_ladder,
)
from ..hardware.battery import Battery, BatteryEmpty
from ..hardware.faults import AcceleratorFailure, FaultPlan
from ..observability import probe
from ..protocols.reliable import VirtualClock
from .battery_aware import BatteryAwarePolicy, SuiteChoice
from .tamper_response import EnvironmentEvent, TamperResponder


class SupervisorGaveUp(Exception):
    """Every engine on the ladder failed the same workload."""


@dataclass(frozen=True)
class DegradationEvent:
    """One supervisor action on the virtual timeline."""

    time_s: float
    action: str
    detail: str


@dataclass
class DegradationReport:
    """Ledger of every degradation the supervisor performed."""

    events: List[DegradationEvent] = field(default_factory=list)
    engine_fallbacks: int = 0
    engine_restorations: int = 0
    suite_downgrades: int = 0
    suite_restorations: int = 0
    brownout_refusals: int = 0
    tamper_zeroizations: int = 0
    reprovisions: int = 0

    def record(self, time_s: float, action: str, detail: str = "") -> None:
        """Append one action row (mirrored as a telemetry event)."""
        self.events.append(DegradationEvent(time_s, action, detail))
        telemetry = probe.active
        if telemetry is not None:
            telemetry.event(f"supervisor.{action}", detail=detail)
            telemetry.registry.counter(
                "repro_supervisor_actions_total",
                "supervisor degradations by action",
            ).inc(action=action)

    def actions(self) -> List[str]:
        """The actions taken, in order."""
        return [event.action for event in self.events]


@dataclass
class _EngineSlot:
    """One ladder rung and its health state."""

    engine: object
    dead: bool = False
    died_at: float = 0.0
    failures: int = 0


class ApplianceSupervisor:
    """Watchdog over one appliance's engines, battery, and tamper domain.

    ``engines`` is the dispatch preference order, most capable first;
    a plain :class:`SoftwareEngine` should close the list (use
    :meth:`for_processor` to get the reversed §4.2 ladder).  All times
    are virtual seconds on the shared ``clock`` — the same
    :class:`~repro.protocols.reliable.VirtualClock` the gateway runtime
    schedules on, so device faults and gateway load live on one
    timeline.
    """

    def __init__(self, engines: Sequence, battery: Optional[Battery] = None,
                 policy: Optional[BatteryAwarePolicy] = None,
                 clock: Optional[VirtualClock] = None,
                 responder: Optional[TamperResponder] = None,
                 reprovision: Optional[Callable[[], object]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 probe_interval_s: float = 10.0) -> None:
        if not engines:
            raise ValueError("supervisor needs at least one engine")
        self._slots = [_EngineSlot(engine) for engine in engines]
        self.battery = battery
        self.policy = policy or BatteryAwarePolicy()
        self.clock = clock or VirtualClock()
        self.responder = responder
        self._reprovision = reprovision
        self.fault_plan = fault_plan
        self.probe_interval_s = probe_interval_s
        self.report = DegradationReport()
        self.reprovisioned: List[object] = []
        self._last_suite: Optional[SuiteChoice] = None

    @classmethod
    def for_processor(cls, processor, **kwargs) -> "ApplianceSupervisor":
        """Supervisor over the full §4.2 ladder, most capable first."""
        return cls(list(reversed(architecture_ladder(processor))), **kwargs)

    # -- engine dispatch -----------------------------------------------------

    @property
    def active_engine(self):
        """The engine the next workload will be offered first."""
        for slot in self._slots:
            if not slot.dead:
                return slot.engine
        return self._slots[-1].engine

    def _engine_name(self, engine) -> str:
        return getattr(engine, "name", type(engine).__name__)

    def execute(self, workload) -> ExecutionReport:
        """Run a workload on the best live engine, degrading down the
        ladder on failure; raises :class:`SupervisorGaveUp` only when
        every rung (software included) refused."""
        telemetry = probe.active
        if telemetry is None:
            return self._execute_inner(workload)
        with telemetry.span("supervisor.execute",
                            workload=type(workload).__name__) as span:
            try:
                result = self._execute_inner(workload)
            except Exception as exc:
                span.set(error=type(exc).__name__)
                raise
            span.set(engine=result.engine)
            telemetry.add_cycles(result.host_instructions, kind="engine")
            telemetry.add_energy_mj(result.energy_mj, kind="engine")
            return result

    def _execute_inner(self, workload) -> ExecutionReport:
        now = self.clock.now
        last_error: Optional[Exception] = None
        for slot in self._slots:
            if slot.dead:
                if now - slot.died_at < self.probe_interval_s:
                    continue
                # Probe: the outage may have been transient.
                slot.dead = False
            engine = slot.engine
            if not engine.supports(workload):
                continue
            try:
                result = engine.execute(workload)
            except (AcceleratorFailure, UnsupportedWorkload) as exc:
                last_error = exc
                slot.failures += 1
                was_probe = slot.died_at > 0.0
                slot.dead = True
                slot.died_at = now
                if not isinstance(engine, SoftwareEngine):
                    self.report.engine_fallbacks += 1
                    self.report.record(
                        now, "engine-fallback",
                        f"{self._engine_name(engine)} failed "
                        f"({type(exc).__name__}); walking down the ladder"
                        + (" [probe]" if was_probe else ""))
                continue
            if slot.died_at > 0.0 and not slot.dead:
                # A probe of a previously-dead engine just succeeded.
                slot.died_at = 0.0
                self.report.engine_restorations += 1
                self.report.record(
                    now, "engine-restored",
                    f"{self._engine_name(engine)} healthy again")
            return result
        raise SupervisorGaveUp(
            f"no engine could run {type(workload).__name__}: {last_error!r}")

    # -- battery management --------------------------------------------------

    def _ladder_rank(self, suite: SuiteChoice) -> int:
        """Position on the policy ladder (larger = cheaper/degraded)."""
        try:
            return self.policy.ladder.index(suite)
        except ValueError:
            return -1

    def choose_suite(self) -> SuiteChoice:
        """Battery-aware suite selection, with ledger entries on change."""
        if self.battery is None:
            fraction = 1.0
        else:
            fraction = self.battery.fraction_remaining
        suite = self.policy.choose_suite(fraction)
        previous = self._last_suite
        if previous is not None and suite != previous:
            # "Down" means further along the policy ladder (cheaper),
            # not lower strength_bits: the §3.3 ladder trades *energy*,
            # and AES (128-bit) is both cheaper and stronger than 3DES.
            if self._ladder_rank(suite) > self._ladder_rank(previous):
                self.report.suite_downgrades += 1
                self.report.record(
                    self.clock.now, "suite-downgrade",
                    f"{previous.cipher}+{previous.mac} -> "
                    f"{suite.cipher}+{suite.mac} at "
                    f"{fraction:.0%} charge")
            else:
                self.report.suite_restorations += 1
                self.report.record(
                    self.clock.now, "suite-restored",
                    f"{previous.cipher}+{previous.mac} -> "
                    f"{suite.cipher}+{suite.mac}")
        self._last_suite = suite
        return suite

    def guarded_drain(self, millijoules: float) -> bool:
        """Transactional battery drain: False (and a ledger entry)
        instead of a mid-operation :class:`BatteryEmpty`."""
        if self.battery is None:
            return True
        try:
            self.battery.drain_mj(millijoules)
        except BatteryEmpty as exc:
            self.report.brownout_refusals += 1
            self.report.record(
                self.clock.now, "brownout-refusal",
                f"requested {exc.requested_mj:.3f} mJ with "
                f"{exc.remaining_mj:.3f} mJ remaining")
            self.choose_suite()   # step the advertised suite down now
            return False
        return True

    # -- tamper response -----------------------------------------------------

    def deliver_environment(self, event: EnvironmentEvent) -> bool:
        """Feed one excursion to the tamper domain.

        A confirmed trip has already zeroised the key store (the
        responder's job); the supervisor records it and — when a
        re-provisioning factory was supplied — builds the replacement
        device so service continues with fresh keys.
        """
        if self.responder is None:
            return False
        responded = self.responder.deliver(event)
        if not responded:
            return False
        self.report.tamper_zeroizations += 1
        self.report.record(
            self.clock.now, "tamper-zeroize",
            f"{event.kind} magnitude {event.magnitude} tripped the mesh")
        if self._reprovision is not None:
            replacement = self._reprovision()
            self.reprovisioned.append(replacement)
            tamper = getattr(replacement, "tamper", None)
            if tamper is not None:
                self.responder = tamper
            self.report.reprovisions += 1
            self.report.record(
                self.clock.now, "reprovision",
                "fresh keys and boot chain provisioned after zeroise")
        return True

    # -- the watchdog tick ---------------------------------------------------

    def poll(self, now: Optional[float] = None) -> None:
        """One watchdog tick: apply due faults, react, update the suite.

        Safe to call at arbitrary cadence (e.g. from the gateway
        runtime's ticker hook): all actions are idempotent per fault.
        """
        if now is not None:
            self.clock.advance_to(now)
        if self.fault_plan is not None:
            for event in self.fault_plan.poll(self.clock.now):
                self.deliver_environment(event)
        self.choose_suite()


def supervise_appliance(appliance, clock: Optional[VirtualClock] = None,
                        policy: Optional[BatteryAwarePolicy] = None,
                        fault_plan: Optional[FaultPlan] = None,
                        reprovision: Optional[Callable[[], object]] = None
                        ) -> ApplianceSupervisor:
    """Build a supervisor over a provisioned
    :class:`~repro.core.appliance.MobileAppliance`: platform engines
    (software fallback appended), platform battery, and the appliance's
    tamper responder."""
    engines = list(appliance.platform.engines)
    engines.append(SoftwareEngine(appliance.platform.processor))
    return ApplianceSupervisor(
        engines,
        battery=appliance.platform.battery,
        policy=policy,
        clock=clock,
        responder=appliance.tamper,
        reprovision=reprovision,
        fault_plan=fault_plan,
    )
