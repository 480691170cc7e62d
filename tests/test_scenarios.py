"""The scenario layer's shared contract: one result shape whose ``ok``
means every request answered and every millijoule reconciled, every
runner on one world that fills that shape the same way, and fault
rates that must be probabilities."""

import pytest

from repro.adversary import run_survivability
from repro.analysis.chaos import chaos_point
from repro.fleet.scenario import run_failover
from repro.observability.attribution import EnergyReconciliation
from repro.observability.scenario import ScenarioResult, run_gateway_chaos
from repro.observability.spans import Telemetry
from repro.workloads.mcommerce import run_mcommerce


def _result(counts, submitted, delta_mj=0.0, dark=False):
    return ScenarioResult(
        telemetry=Telemetry(), stats=None, counts=counts,
        submitted=submitted, batteries={},
        reconciliation=None if dark else EnergyReconciliation(
            attributed_mj=1.0 + delta_mj, battery_drain_mj=1.0,
            tolerance_mj=1e-9),
        params={})


class TestScenarioResult:
    def test_answered_sums_the_counts(self):
        result = _result({"served": 3, "degraded": 1, "shed": 2}, 6)
        assert result.answered == 6
        assert result.ok

    def test_unanswered_request_is_not_ok(self):
        result = _result({"served": 3, "degraded": 1, "shed": 1}, 6)
        assert result.reconciliation.ok
        assert not result.ok

    def test_failed_reconciliation_is_not_ok(self):
        result = _result({"served": 6, "degraded": 0, "shed": 0}, 6,
                         delta_mj=0.5)
        assert result.answered == result.submitted
        assert not result.ok

    def test_dark_result_checks_answers_only(self):
        assert _result({"served": 2, "degraded": 0, "shed": 0}, 2,
                       dark=True).ok
        assert not _result({"served": 1, "degraded": 0, "shed": 0}, 2,
                           dark=True).ok


RUNNERS = {
    "run_gateway_chaos": lambda: run_gateway_chaos(
        sessions=4, requests_per_session=2),
    "run_survivability": lambda: run_survivability(
        sessions=2, requests_per_session=2),
    "run_failover": lambda: run_failover(
        sessions=4, shards=2, requests_per_session=2, seed=5),
    "run_mcommerce": lambda: run_mcommerce(
        sessions=3, shards=2, duration_s=0.3),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_every_runner_fills_one_result_shape(name):
    result = RUNNERS[name]()
    assert result.ok
    assert result.answered == result.submitted
    assert sum(result.per_session_replies.values()) == result.answered
    assert sorted(result.per_session_replies) == sorted(result.batteries)
    assert sum(result.shed_reasons.values()) == result.counts["shed"]
    assert result.reconciliation.ok


def test_dark_failover_is_ok_without_a_reconciliation():
    """A dark run attributes no energy, so it cannot reconcile; its
    verdict is its answers alone."""
    result = run_failover(sessions=6, shards=2, requests_per_session=2,
                          seed=9, probe_enabled=False)
    assert result.telemetry.spans == []
    assert result.reconciliation is None
    assert result.answered == result.submitted
    assert result.ok


SMALL = {
    "run_gateway_chaos": lambda rate: run_gateway_chaos(
        sessions=1, requests_per_session=1, fault_rate=rate),
    "run_survivability": lambda rate: run_survivability(
        sessions=1, requests_per_session=1, attacker_fraction=0.0,
        fault_rate=rate),
    "chaos_point": lambda rate: chaos_point(
        sessions=1, requests_per_session=1, fault_rate=rate),
}


@pytest.mark.parametrize("rate", [-0.1, 1.5])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_fault_rate_outside_unit_interval_rejected(name, rate):
    with pytest.raises(ValueError, match="fault rate"):
        SMALL[name](rate)
