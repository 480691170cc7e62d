"""The fleet metrics adapter against a seeded two-shard chaos run.

Satellite coverage for :func:`repro.observability.metrics.export_fleet`:
per-shard collector label sets (liveness, journal health, and the
answer ledger a restart keeps), the recovery-latency
percentile gauges, and the ticket-cache gauges — all read through a
real registry scrape of a finished run, not hand-fed counters.
"""

import pytest

from repro.fleet.runtime import CrashPlan, ShardedFleet
from repro.fleet.scenario import run_failover
from repro.protocols.wap import ORIGIN_NAME

SEED = 77


@pytest.fixture(scope="module")
def result():
    return run_failover(sessions=8, shards=2, requests_per_session=3,
                        seed=SEED)


@pytest.fixture(scope="module")
def scrape(result):
    return {(name, key): value
            for name, key, value
            in result.telemetry.registry.samples()}


def _shard_key(name):
    return (("shard", name),)


class TestShardCollectors:
    def test_every_shard_labelled(self, result, scrape):
        names = [shard.name for shard in result.fleet.shards]
        assert names == ["shard-00", "shard-01"]
        for metric in ("repro_fleet_shard_alive",
                       "repro_fleet_shard_sessions",
                       "repro_fleet_shard_crashes",
                       "repro_fleet_checkpoints_written",
                       "repro_fleet_journal_bytes",
                       "repro_fleet_journal_evictions",
                       "repro_fleet_journal_torn_records",
                       "repro_fleet_shard_served",
                       "repro_fleet_shard_degraded",
                       "repro_fleet_shard_shed",
                       "repro_fleet_shard_energy_mj"):
            for name in names:
                assert (metric, _shard_key(name)) in scrape, metric

    def test_exported_answer_ledger_is_the_shards(self, result, scrape):
        for shard in result.fleet.shards:
            assert shard.restarts >= 1  # the sweep killed every shard
            stats = shard.runtime.stats
            assert scrape[("repro_fleet_shard_served",
                           _shard_key(shard.name))] == float(stats.served)
            assert scrape[("repro_fleet_shard_energy_mj",
                           _shard_key(shard.name))] == stats.energy_mj

    def test_totals_match_fleet_ledger(self, result, scrape):
        totals = result.fleet.runtime_totals()
        served = sum(scrape[("repro_fleet_shard_served", _shard_key(s.name))]
                     for s in result.fleet.shards)
        assert served == totals["served"]

    def test_crash_counts_exported(self, result, scrape):
        crashes = sum(
            scrape[("repro_fleet_shard_crashes", _shard_key(s.name))]
            for s in result.fleet.shards)
        assert crashes == float(result.stats.crashes) > 0


def test_restart_keeps_the_shards_answer_ledger():
    """A restart swaps in a fresh runtime but hands it the crashed
    one's ledger, so nothing answered before the crash is lost."""
    fleet = ShardedFleet(seed=SEED)
    for index in range(4):
        fleet.attach_session(f"h{index}")
        fleet.submit_at(0.1, f"h{index}", ORIGIN_NAME, b"ping")
    shard = fleet.shards[0]
    before = {}

    def look(now):
        stats = shard.runtime.stats
        before.update(runtime=shard.runtime, stats=stats,
                      answers=(stats.served, stats.energy_mj))

    fleet.scheduler.at(0.9, look, label="look")
    fleet.apply_plan(CrashPlan().kill_shard(0, 1.0))
    fleet.run()
    served, energy_mj = before["answers"]
    assert served > 0 and energy_mj > 0.0
    assert shard.runtime is not before["runtime"]
    assert shard.runtime.stats is before["stats"]
    assert shard.restarts == 1
    assert (shard.runtime.stats.served,
            shard.runtime.stats.energy_mj) == (served, energy_mj)


class TestRecoveryGauges:
    def test_percentile_gauges_present_and_ordered(self, result, scrape):
        p50 = scrape[("repro_fleet_recovery_p50_s", ())]
        p95 = scrape[("repro_fleet_recovery_p95_s", ())]
        assert 0.0 < p50 <= p95
        assert p50 == pytest.approx(result.stats.recovery_p50_s())
        assert p95 == pytest.approx(result.stats.recovery_p95_s())

    def test_ticket_cache_gauges(self, result, scrape):
        cache = result.fleet.ticket_cache
        assert scrape[("repro_fleet_ticket_cache_entries", ())] == float(
            len(cache))
        assert scrape[("repro_fleet_ticket_cache_evictions", ())] == float(
            cache.evictions)
        assert scrape[("repro_fleet_ticket_cache_expired", ())] == float(
            cache.expired)


class TestFleetLedger:
    def test_supervisor_counters_exported(self, result, scrape):
        stats = result.stats
        for field, value in (
                ("crashes", stats.crashes),
                ("migrations_warm", stats.migrations_warm),
                ("migrations_cold_resume", stats.migrations_cold_resume),
                ("migrations_cold_full", stats.migrations_cold_full),
                ("shed_recovering", stats.shed_recovering),
                ("recovery_energy_mj", stats.recovery_energy_mj)):
            assert scrape[(f"repro_fleet_{field}", ())] == pytest.approx(
                float(value))

    def test_scrape_deterministic(self, result):
        first = result.telemetry.registry.samples()
        second = result.telemetry.registry.samples()
        assert first == second
