"""The fleet acceptance gate: the seeded multi-shard chaos run.

One canonical run (24 sessions x 4 shards x 6 requests, seed 2003)
must satisfy every declared property of the crash-fault-tolerance
plane at once: every shard killed at least once, every benign request
answered or shed with a structured reason, all three recovery tiers
exercised, exact energy reconciliation, zero replayed or skipped
record sequences on any handset, and byte-identical behaviour on a
same-seed rerun.
"""

import pytest

from repro.analysis.failover import build_report
from repro.analysis.report import format_report
from repro.fleet import run_failover

SESSIONS = 24
SHARDS = 4
REQUESTS = 6
SEED = 2003


@pytest.fixture(scope="module")
def result():
    return run_failover(sessions=SESSIONS, shards=SHARDS,
                        requests_per_session=REQUESTS, seed=SEED)


class TestChaosAcceptance:
    def test_every_shard_killed_at_least_once(self, result):
        assert result.stats.crashes >= SHARDS
        assert all(shard.crash_count >= 1
                   for shard in result.fleet.shards)
        assert result.stats.detections == result.stats.crashes
        assert result.stats.restarts == result.stats.crashes

    def test_every_benign_request_answered(self, result):
        assert result.fleet.submitted == SESSIONS * REQUESTS
        assert result.answered == result.fleet.submitted
        # Exactly one answer per request, per session.
        assert all(count == REQUESTS
                   for count in result.per_session_replies.values())
        assert sum(result.counts.values()) == result.fleet.submitted

    def test_sheds_carry_structured_reasons(self, result):
        assert result.counts["shed"] == sum(result.shed_reasons.values())
        assert "unknown" not in result.shed_reasons
        # The failover windows produced recovering sheds specifically.
        assert result.shed_reasons.get("recovering", 0) > 0
        assert result.stats.shed_recovering == \
            result.shed_reasons["recovering"]

    def test_all_three_recovery_tiers_exercised(self, result):
        stats = result.stats
        assert stats.migrations_warm > 0
        assert stats.migrations_cold_resume > 0
        assert stats.migrations_cold_full > 0
        assert stats.sessions_migrated == (
            stats.migrations_warm + stats.migrations_cold_resume
            + stats.migrations_cold_full)
        assert stats.checkpoints_restored == stats.migrations_warm

    def test_recovery_latencies_are_tracked(self, result):
        stats = result.stats
        assert len(stats.recovery_latencies) == stats.sessions_migrated
        assert 0.0 < stats.recovery_p50_s() <= stats.recovery_p95_s()

    def test_energy_reconciles_exactly(self, result):
        assert result.reconciliation.ok
        assert result.stats.recovery_energy_mj > 0.0

    def test_no_handset_ever_saw_a_replayed_or_damaged_record(self, result):
        # A mid-batch crash must never replay a record sequence: the
        # restore-time sequence skip leapfrogs anything the dead shard
        # could have consumed, so no handset discards a single record.
        assert all(handset.discarded == 0
                   for handset in result.fleet.handsets.values())

    def test_bounded_stores_actually_bounded(self, result):
        fleet = result.fleet
        limit = fleet.config.journal_index_limit
        assert all(shard.journal.tracked_sessions() <= limit
                   for shard in fleet.shards)
        assert len(fleet.ticket_cache) <= fleet.config.ticket_cache_limit
        # The canonical sizing forces evictions (the cold-path driver).
        assert fleet.journal_evictions() > 0
        assert fleet.ticket_cache.evictions > 0

    def test_restarts_rotate_the_ticket_cache(self, result):
        assert result.fleet.ticket_cache.rotations == result.stats.restarts


class TestDeterminism:
    def test_same_seed_reruns_are_byte_identical(self, result):
        text = format_report(build_report(result))
        rerun = run_failover(sessions=SESSIONS, shards=SHARDS,
                             requests_per_session=REQUESTS, seed=SEED)
        assert format_report(build_report(rerun)) == text

    def test_different_seeds_diverge(self, result):
        other = run_failover(sessions=SESSIONS, shards=SHARDS,
                             requests_per_session=REQUESTS, seed=7)
        assert format_report(build_report(other)) != \
            format_report(build_report(result))
        # But the invariants hold at any seed.
        assert other.answered == other.fleet.submitted
        assert other.reconciliation.ok
