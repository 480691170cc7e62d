"""The m-commerce workload plane: deterministic planning, honest
negotiation, exact energy reconciliation, byte-stable reporting."""

import pytest

from repro.analysis.mcommerce import build_report
from repro.analysis.report import format_report
from repro.protocols.ciphersuites import SUITES_BY_NAME
from repro.workloads import (
    BATTERY_CLASSES,
    SESSION_KINDS,
    plan_workload,
    run_mcommerce,
)
from repro.workloads.mcommerce import MAX_REQUESTS_PER_SESSION


@pytest.fixture(scope="module")
def result():
    """One shared small run (handshakes are the expensive part)."""
    return run_mcommerce(sessions=18, shards=3, seed=2003, duration_s=0.8)


class TestPlan:
    def test_same_seed_is_identical(self):
        assert plan_workload(12, 7, 1.0) == plan_workload(12, 7, 1.0)

    def test_different_seed_differs(self):
        assert plan_workload(12, 7, 1.0) != plan_workload(12, 8, 1.0)

    def test_every_battery_class_is_populated(self):
        plans = plan_workload(9, 2003, 1.0)
        assert {p.battery_class for p in plans} == \
            {k.name for k in BATTERY_CLASSES}

    def test_leads_follow_the_class_policy(self):
        """Each session's negotiation target is one of its class's
        lead suites, and the full fallback matrix rides behind."""
        by_name = {k.name: k for k in BATTERY_CLASSES}
        for plan in plan_workload(18, 2003, 1.0):
            klass = by_name[plan.battery_class]
            assert SUITES_BY_NAME[plan.suite_name] in klass.leads
            assert plan.suites[0].name == plan.suite_name
            assert len(plan.suites) == len(set(plan.suites))

    def test_arrivals_are_increasing_and_capped(self):
        for plan in plan_workload(30, 11, 5.0):
            assert list(plan.arrivals_s) == sorted(plan.arrivals_s)
            assert len(plan.arrivals_s) <= MAX_REQUESTS_PER_SESSION
            assert len(plan.arrivals_s) == len(plan.payload_sizes)
            kind = next(k for k in SESSION_KINDS if k.name == plan.kind)
            assert len(plan.arrivals_s) >= min(kind.min_requests,
                                               MAX_REQUESTS_PER_SESSION)
            for size in plan.payload_sizes:
                assert 16 <= size <= kind.payload_cap


class TestRun:
    def test_every_request_is_answered(self, result):
        answered = sum(result.per_session_replies.values())
        assert answered == result.fleet.submitted
        assert sum(result.counts.values()) == answered

    def test_negotiated_suite_matches_the_plan(self, result):
        for plan in result.plans:
            assert result.fleet.handsets[plan.session_id].suite_name == \
                plan.suite_name

    def test_energy_reconciles_exactly(self, result):
        assert result.reconciliation.ok
        # Compute charges really landed: every suite that carried
        # traffic has a non-zero bulk-crypto entry.
        for plan in result.plans:
            assert result.compute_mj.get(plan.suite_name, 0.0) > 0.0

    def test_purchases_run_the_dual_signature_flow(self, result):
        purchases = [p for p in result.plans if p.kind == "purchase"]
        assert len(result.payments) == len(purchases)
        for record in result.payments:
            assert record["binding_holds"]
            assert record["cardholder"] == "cardholder.device"
            assert len(record["auth_code"]) == 12
        assert result.dual_signature_mj > 0.0


class TestReport:
    def test_report_is_deterministic(self, result):
        text = format_report(build_report(result))
        rerun = run_mcommerce(sessions=18, shards=3, seed=2003,
                              duration_s=0.8)
        assert format_report(build_report(rerun)) == text

    def test_report_reconciles_and_covers_every_suite(self, result):
        report = build_report(result)
        assert report["energy"]["reconciled"]
        assert report["traffic"]["answer_rate"] == 1.0
        assert set(report["by_suite"]) == \
            {p.suite_name for p in result.plans}
        for row in report["by_suite"].values():
            assert row["transactions"] > 0
            assert row["mj_per_transaction"] > 0.0
        assert set(report["by_battery_class"]) == \
            {k.name for k in BATTERY_CLASSES}
        assert report["payments"]["bindings_hold"]
