"""The scenario layer's shared contract: one result shape whose ``ok``
means every request answered and every millijoule reconciled, and
fault rates that must be probabilities."""

import pytest

from repro.adversary import run_survivability
from repro.analysis.chaos import chaos_point
from repro.observability.attribution import EnergyReconciliation
from repro.observability.scenario import ScenarioResult, run_gateway_chaos
from repro.observability.spans import Telemetry


def _result(counts, submitted, delta_mj=0.0):
    return ScenarioResult(
        telemetry=Telemetry(), stats=None, counts=counts,
        submitted=submitted, batteries={},
        reconciliation=EnergyReconciliation(
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
