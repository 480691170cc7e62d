"""The fleet watchtower end to end: traces, windows, SLOs, neutrality.

The acceptance gates for the fleet observability plane:

* two same-seed watched runs produce byte-identical ops reports;
* every crashed session's journey stitches into one trace, and the
  three recovery tiers all appear across the canonical run;
* watching a run does not change what the run did (the embedded
  failover report is byte-identical to an unwatched run's);
* energy reconciliation still closes exactly;
* a shard killed mid-span aborts the span instead of leaking it open.
"""

import pytest

from repro.analysis.failover import build_report as build_failover_report
from repro.analysis.fleetwatch import build_report
from repro.analysis.report import format_report
from repro.fleet.scenario import run_failover
from repro.observability.fleetwatch import run_fleetwatch


@pytest.fixture(scope="module")
def result():
    """The canonical watched chaos run (24 sessions, 4 shards)."""
    return run_fleetwatch(seed=2003)


@pytest.fixture(scope="module")
def report(result):
    return build_report(result)


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        first = format_report(build_report(run_fleetwatch(
            sessions=10, shards=2, requests_per_session=3, seed=9)))
        second = format_report(build_report(run_fleetwatch(
            sessions=10, shards=2, requests_per_session=3, seed=9)))
        assert first == second

    def test_watching_does_not_change_the_run(self):
        plain = format_report(build_failover_report(run_failover(
            sessions=10, shards=2, requests_per_session=3, seed=9)))
        watched = format_report(build_failover_report(run_fleetwatch(
            sessions=10, shards=2, requests_per_session=3,
            seed=9)))
        assert plain == watched

    def test_probe_disabled_run_same_outcomes(self):
        lit = run_failover(sessions=10, shards=2,
                           requests_per_session=3, seed=9)
        dark = run_failover(sessions=10, shards=2,
                            requests_per_session=3, seed=9,
                            probe_enabled=False)
        assert dark.counts == lit.counts
        assert dark.shed_reasons == lit.shed_reasons
        assert dark.telemetry.spans == []


class TestJourneys(object):
    def test_every_session_has_a_journey(self, result, report):
        journeys = report["traces"]["journeys"]
        assert sorted(journeys) == sorted(result.batteries)

    def test_every_migrated_session_stitched(self, result, report):
        journeys = report["traces"]["journeys"]
        migrated = {session: row for session, row in journeys.items()
                    if row["tiers"]}
        assert len(migrated) >= result.stats.crashes
        for session, row in migrated.items():
            assert row["stitched"], session
            assert row["crash_milestones"] >= 1, session
            assert len(row["shards"]) >= 2, session

    def test_all_three_tiers_represented(self, report):
        assert report["traces"]["tiers_seen"] == [
            "cold-full", "cold-resume", "warm"]

    def test_tier_counts_match_fleet_ledger(self, result, report):
        stats = result.stats
        tiers = [tier for row in report["traces"]["journeys"].values()
                 for tier in row["tiers"]]
        assert tiers.count("warm") == stats.migrations_warm
        assert tiers.count("cold-resume") == stats.migrations_cold_resume
        assert tiers.count("cold-full") == stats.migrations_cold_full

    def test_streams_are_the_shards_plus_supervisor(self, result, report):
        names = {shard.name for shard in result.fleet.shards}
        assert set(report["traces"]["streams"]) == names | {"fleet"}

    def test_no_span_left_open(self, result):
        assert all(span.end_s is not None
                   for span in result.telemetry.spans)


class TestWindows:
    def test_window_sums_conserve_the_ledger(self, result, report):
        totals = result.fleet.runtime_totals()
        rows = report["windows"]["fleet"]
        assert sum(row["served"] for row in rows) == (
            totals["served"] + totals["degraded"])
        assert sum(row["shed"] for row in rows) == totals["shed"]
        assert sum(row["shed_recovering"] for row in rows) == (
            result.stats.shed_recovering)
        assert sum(row["energy_mj"]["serve"]
                   for row in rows) == pytest.approx(
            totals["energy_mj"], abs=1e-3)
        assert sum(row["energy_mj"]["recovery"]
                   for row in rows) == pytest.approx(
            result.stats.recovery_energy_mj, abs=1e-3)

    def test_tier_window_counts_match_migrations(self, result, report):
        stats = result.stats
        rows = report["windows"]["fleet"]
        for key, expected in (("warm", stats.migrations_warm),
                              ("cold_resume", stats.migrations_cold_resume),
                              ("cold_full", stats.migrations_cold_full)):
            assert sum(row["tiers"][key] for row in rows) == expected

    def test_crash_windows_show_recovery(self, report):
        rows = report["windows"]["fleet"]
        storm = [row for row in rows if row["shed_recovering"]]
        assert storm, "no window saw recovering sheds"
        for row in storm:
            assert row["goodput"] < 1.0

    def test_shard_windows_and_merged_percentiles(self, result, report):
        shards = report["windows"]["shards"]
        assert sorted(shards) == sorted(
            shard.name for shard in result.fleet.shards)
        for entry in shards.values():
            assert entry["windows"]
            if "latency" in entry:
                lat = entry["latency"]
                assert 0.0 < lat["p50"] <= lat["p95"] <= lat["p99"]

    def test_overall_latency_present(self, report):
        overall = report["windows"]["overall_latency"]
        assert overall["count"] > 0
        assert 0.0 < overall["p50"] <= overall["p95"]


class TestSlo:
    def test_availability_burns_during_the_storm(self, report):
        specs = report["slo"]["specs"]
        assert specs["availability"]["ever_fired"] is True
        assert specs["availability"]["max_burn"] > 10.0

    def test_alert_ledger_latched(self, report):
        alerts = report["slo"]["alerts"]
        states = [alert["state"] for alert in alerts]
        assert "firing" in states and "cleared" in states
        # Ledger is time-ordered and never rewritten.
        assert [a["at_s"] for a in alerts] == sorted(
            a["at_s"] for a in alerts)

    def test_latency_slo_healthy(self, report):
        assert report["slo"]["specs"]["latency"]["ever_fired"] is False


class TestEnergy:
    def test_reconciliation_still_exact(self, result):
        assert result.reconciliation.ok

    def test_report_energy_reconciled(self, report):
        assert report["failover"]["energy"]["reconciled"] is True


class TestMidSpanCrash:
    def test_crash_aborts_open_shard_span(self):
        opened = {}

        def instrument(fleet, telemetry):
            opened["span"] = telemetry.start_span(
                "longlived.io", shard="shard-00")

        result = run_failover(sessions=6, shards=2,
                              requests_per_session=3, seed=5,
                              instrument=instrument)
        span = opened["span"]
        assert span.end_s is not None
        assert span.attrs["aborted"] is True
        assert span.attrs["abort_reason"] == "shard-crash"
        assert all(s.end_s is not None for s in result.telemetry.spans)
        assert result.reconciliation.ok
