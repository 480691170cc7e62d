"""Acceptance tests for the adversarial traffic plane (ISSUE PR 7).

The seeded mixed-load scenario — 32 benign handsets plus the four
adversary classes on one virtual clock — must produce a byte-identical
survivability report across same-seed reruns, hold the declared
goodput bound against the attack-free baseline, answer every benign
request, and reconcile attacker-vs-user energy exactly.
"""

from __future__ import annotations

import pytest

from repro.adversary import run_survivability
from repro.analysis.report import format_report
from repro.analysis.survivability import DECLARED_GOODPUT_BOUND, build_report

SEED = 2003


@pytest.fixture(scope="module")
def attacked():
    """The full-scale acceptance run: 32 sessions, 50% attacker mix."""
    return run_survivability(seed=SEED)


@pytest.fixture(scope="module")
def baseline():
    """Same world, same seed, zero attackers."""
    return run_survivability(attacker_fraction=0.0, seed=SEED)


class TestAcceptance:
    def test_full_scale_world_shape(self, attacked):
        assert attacked.params["sessions"] >= 32
        kinds = {adversary.kind
                 for adversary in attacked.population.adversaries}
        assert kinds == {"cookie-flood", "downgrade", "timing-probe",
                         "fuzz-injection"}

    def test_report_is_byte_identical_across_same_seed_reruns(
            self, attacked):
        rerun = run_survivability(seed=SEED)
        assert format_report(build_report(attacked)) == \
            format_report(build_report(rerun))

    def test_goodput_holds_declared_bound(self, attacked, baseline):
        assert baseline.benign_goodput == 1.0
        assert attacked.benign_goodput >= \
            baseline.benign_goodput - DECLARED_GOODPUT_BOUND

    def test_every_benign_request_is_answered(self, attacked):
        answered = sum(attacked.counts.values())
        assert answered == attacked.stats.submitted
        assert answered == attacked.params["sessions"] * \
            attacked.params["requests_per_session"]

    def test_energy_reconciles_exactly(self, attacked, baseline):
        assert attacked.reconciliation.ok
        assert baseline.reconciliation.ok

    def test_attacker_energy_is_separated_from_user_energy(self, attacked):
        report = build_report(attacked)
        energy = report["energy"]
        assert energy["attacker_mj"] > 0.0
        assert energy["user_mj"] > 0.0
        # Per-class span attribution covers every adversary that fired.
        fired = {a.kind for a in attacked.population.adversaries
                 if a.events > 0}
        assert fired <= set(energy["per_adversary_class_mj"])

    def test_malformed_traffic_is_absorbed_structurally(self, attacked):
        # The fuzz adversary's bursts are discarded (skip path) or shed
        # with a structured GW-BUSY, never an unhandled exception.
        total_garbage = (attacked.stats.malformed_discarded
                         + attacked.leftover_discarded)
        assert total_garbage > 0
        fuzz = next(a for a in attacked.population.adversaries
                    if a.kind == "fuzz-injection")
        assert fuzz.frames_injected >= total_garbage

    def test_downgrade_never_succeeds(self, attacked):
        mitm = next(a for a in attacked.population.adversaries
                    if a.kind == "downgrade")
        assert mitm.events > 0
        assert mitm.downgrades_succeeded == 0
        assert mitm.downgrades_blocked == mitm.events

    def test_dos_gate_absorbs_the_flood(self, attacked):
        snap = attacked.responder.snapshot()
        flood = next(a for a in attacked.population.adversaries
                     if a.kind == "cookie-flood")
        assert flood.hellos_sent > 0
        assert snap["evicted"] > 0
        assert snap["secret_rotations"] > 0
        # All 32 benign handsets passed the gate despite the flood.
        assert snap["cookies_verified"] >= attacked.params["sessions"]

    def test_alert_rules_latched(self, attacked):
        names = {alert.name for alert in attacked.population.alerts}
        assert {"dos-table-pressure", "wire-garbage",
                "downgrade-attempts"} <= names


class TestBaseline:
    def test_baseline_population_is_empty(self, baseline):
        assert baseline.population.adversaries == []
        assert baseline.population.total_events() == 0
        assert baseline.population.energy_spent_mj() == 0.0
        assert baseline.stats.malformed_discarded == 0
        assert baseline.population.alerts == []


class TestFaultVariant:
    def test_origin_faults_trip_breaker_and_alert(self):
        result = run_survivability(
            sessions=12, requests_per_session=3, fault_rate=0.3,
            seed=SEED)
        transitions = [t for trans in result.breakers.values()
                       for t in trans]
        assert any(to == "open" for _, _, to in transitions)
        assert "origin-breaker-open" in {
            alert.name for alert in result.population.alerts}
        assert result.reconciliation.ok

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            run_survivability(attacker_fraction=1.0)
        with pytest.raises(ValueError):
            run_survivability(attacker_fraction=-0.1)
