"""Overload-resilient gateway runtime: admission, breaker, acceptance.

Covers the unit surfaces (token bucket, circuit breaker, structured
``GW-BUSY:`` replies, the three shedding paths), the fault-free
byte-for-byte transparency pin (every answer is the origin handler's
reply), and the chaos acceptance scenario: 32 concurrent handset
sessions with an injected origin outage, an accelerator failure, and a
battery brownout — every request answered, the breaker provably
cycling closed → open → half-open → closed, and the whole run
byte-identical across repeats with the same seed (the CI chaos job
re-runs it across seeds via ``CHAOS_SEED``).
"""

from __future__ import annotations

import os

import pytest

from repro.core.supervisor import ApplianceSupervisor
from repro.hardware.accelerators import architecture_ladder
from repro.hardware.battery import Battery
from repro.hardware.faults import BatteryBrownout, FaultPlan, wrap_engines
from repro.hardware.processors import ARM7
from repro.hardware.workloads import BulkWorkload
from repro.protocols.gateway_runtime import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RESET_S,
    CLOSED,
    DEADLINE_S,
    HALF_OPEN,
    MALFORMED_SKIP,
    OPEN,
    CircuitBreaker,
    RuntimeConfig,
    TokenBucket,
    build_gateway_runtime_world,
    busy_reply,
    classify_reply,
    classify_shed_reason,
    drain_replies,
)
from repro.protocols.wap import DEGRADED_PREFIX

ORIGIN = "origin.example"
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _outage(runtime, until_s: float) -> None:
    """Fail every wired-leg attempt to the origin until ``until_s``."""
    runtime.set_fault_rate(ORIGIN, 1.0)

    def end_outage(now: float) -> None:
        if now >= until_s:
            runtime.set_fault_rate(ORIGIN, 0.0)

    runtime.add_ticker(end_outage)


# -- token bucket ------------------------------------------------------------


def test_token_bucket_burst_then_sustained_rate():
    bucket = TokenBucket(capacity=3, refill_per_s=2.0)
    assert [bucket.try_take(0.0) for _ in range(4)] == [
        True, True, True, False]
    assert bucket.seconds_until_token(0.0) == pytest.approx(0.5)
    assert bucket.try_take(0.5)            # one token refilled
    assert not bucket.try_take(0.5)


def test_token_bucket_never_exceeds_capacity():
    bucket = TokenBucket(capacity=2, refill_per_s=100.0)
    assert [bucket.try_take(1000.0) for _ in range(3)] == [
        True, True, False]


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(capacity=0, refill_per_s=1.0)
    with pytest.raises(ValueError):
        TokenBucket(capacity=1, refill_per_s=0.0)


# -- circuit breaker ---------------------------------------------------------


def _tripped_breaker() -> CircuitBreaker:
    """A breaker its threshold of failures opened at t=0."""
    breaker = CircuitBreaker(ORIGIN)
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure(0.0)
    assert breaker.state == OPEN
    return breaker


def test_breaker_full_cycle():
    assert (BREAKER_FAILURE_THRESHOLD, BREAKER_RESET_S) == (3, 5.0)
    breaker = CircuitBreaker(ORIGIN)
    assert breaker.state == CLOSED
    assert breaker.allow(0.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    assert breaker.state == CLOSED          # below threshold
    breaker.record_failure(0.2)
    assert breaker.state == OPEN            # threshold reached
    assert not breaker.allow(5.1)           # cooling: fast-fail
    assert breaker.fast_fails == 1
    assert breaker.allow(5.5)               # cooled: half-open probe
    assert breaker.state == HALF_OPEN
    breaker.record_success(5.5)
    assert breaker.state == CLOSED
    assert breaker.transitions == [
        (0.2, CLOSED, OPEN), (5.5, OPEN, HALF_OPEN), (5.5, HALF_OPEN, CLOSED)]
    assert breaker.state_history() == [OPEN, HALF_OPEN, CLOSED]


def test_breaker_reopens_on_failed_probe():
    breaker = _tripped_breaker()
    assert breaker.allow(5.5)               # half-open
    breaker.record_failure(5.5)             # probe failed
    assert breaker.state == OPEN
    assert not breaker.allow(10.0)          # cooling restarted at 5.5
    assert breaker.allow(10.6)


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(ORIGIN)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    breaker.record_success(0.2)
    breaker.record_failure(0.3)
    breaker.record_failure(0.4)
    assert breaker.state == CLOSED          # streak broken by the success


# -- structured rejections ---------------------------------------------------


def test_busy_reply_is_machine_parseable():
    assert busy_reply("deadline") == b"GW-BUSY: reason=deadline"
    assert busy_reply("rate-limited", 0.125) == \
        b"GW-BUSY: reason=rate-limited retry-after=0.125"


def test_reply_classification():
    assert classify_reply(busy_reply("deadline")) == "shed"
    assert classify_reply(DEGRADED_PREFIX + b" origin down") == "degraded"
    assert classify_reply(b"OK:req") == "served"
    assert classify_shed_reason(busy_reply("rate-limited", 0.5)) == \
        "rate-limited"
    assert classify_shed_reason(b"GW-BUSY:") == "unknown"
    assert classify_shed_reason(b"OK:req") is None


def test_drain_raises_when_a_request_went_unanswered():
    class StubRuntime:
        class stats:
            submitted = 3
            answered = 2

    with pytest.raises(RuntimeError, match="unanswered"):
        drain_replies(StubRuntime(), {})


# -- shedding paths ----------------------------------------------------------


def _drain(handsets):
    """All replies currently queued at the handsets, per session."""
    return {sid: [conn.receive() for _ in range(conn.endpoint.pending())]
            for sid, conn in handsets.items()}


def test_rate_limit_shed_carries_retry_after():
    config = RuntimeConfig(bucket_capacity=1.0, bucket_refill_per_s=1.0)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, config=config)
    for index in range(3):
        handsets["handset-00"].send(f"r{index}".encode())
        runtime.submit("handset-00", ORIGIN)   # burst at t=0
    stats = runtime.run()
    replies = _drain(handsets)["handset-00"]
    assert stats.shed_rate_limited == 2
    assert [classify_reply(reply) for reply in replies] == [
        "served", "shed", "shed"]
    assert all(b"reason=rate-limited retry-after=" in reply
               for reply in replies[1:])


def test_queue_full_shed():
    config = RuntimeConfig(
        queue_limit=2, bucket_capacity=16.0, bucket_refill_per_s=16.0,
        service_time_s=1.0)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, config=config)
    for index in range(4):
        handsets["handset-00"].send(f"r{index}".encode())
        runtime.submit("handset-00", ORIGIN)
    stats = runtime.run()
    assert stats.shed_queue_full > 0
    assert stats.answered == stats.submitted


def test_deadline_shed_answers_instead_of_serving_stale():
    assert DEADLINE_S == 4.0
    config = RuntimeConfig(
        queue_limit=32, bucket_capacity=32.0, bucket_refill_per_s=32.0,
        service_time_s=3.0)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, config=config)
    for index in range(4):
        handsets["handset-00"].send(f"r{index}".encode())
        runtime.submit("handset-00", ORIGIN)   # 12s of work at t=0
    stats = runtime.run()
    replies = _drain(handsets)["handset-00"]
    # All four arrived at 0s, so each must start by 4s. r0 holds the
    # server until 3s; r1 starts at 3s and finishes at 6s, too late for
    # r2 and r3. Latencies run from arrival: 3s and 6s.
    assert stats.shed_deadline == 2
    assert replies[-2:] == [b"GW-BUSY: reason=deadline"] * 2
    assert stats.latencies == [3.0, 6.0]
    assert stats.answered == stats.submitted


def test_unknown_origin_degrades():
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED)
    handsets["handset-00"].send(b"hello")
    runtime.submit("handset-00", "no.such.origin")
    runtime.run()
    reply = handsets["handset-00"].receive()
    assert reply.startswith(DEGRADED_PREFIX)


def test_handler_failures_counted_and_not_breaker_events():
    def flaky_handler(request: bytes) -> bytes:
        if request.endswith(b"boom"):
            raise RuntimeError("application bug")
        return b"OK:" + request

    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, handler=flaky_handler)
    for payload in (b"fine", b"boom", b"fine2"):
        handsets["handset-00"].send(payload)
        runtime.submit("handset-00", ORIGIN, arrival_offset_s=0.0)
    stats = runtime.run()
    replies = _drain(handsets)["handset-00"]
    assert stats.handler_failures == 1
    assert stats.degraded == 1
    assert [classify_reply(r) for r in replies] == [
        "served", "degraded", "served"]
    assert b"origin handler error" in replies[1]
    # Application failures must not open the breaker:
    assert runtime.breaker_for(ORIGIN).state == CLOSED
    assert runtime.breaker_for(ORIGIN).transitions == []


def test_session_management_guards():
    runtime, handsets, ca = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED)
    with pytest.raises(KeyError):
        runtime.submit("nope", ORIGIN)
    with pytest.raises(ValueError):
        runtime.submit("handset-00", ORIGIN, arrival_offset_s=-1.0)
    with pytest.raises(ValueError):
        runtime.adopt_session("handset-00", handsets["handset-00"])


# -- fault-free transparency -------------------------------------------------


def test_runtime_is_byte_transparent_without_faults():
    """With no faults and no overload every answer is the origin
    handler's reply byte for byte, and the WAP-gap plaintext log holds
    each request followed by its reply."""
    requests = [f"request-{index}".encode() for index in range(5)]
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED)
    for index, request in enumerate(requests):
        handsets["handset-00"].send(request)
        runtime.submit("handset-00", ORIGIN, arrival_offset_s=index * 1.0)
    stats = runtime.run()

    assert _drain(handsets)["handset-00"] == [
        b"OK:" + request for request in requests]
    assert runtime.plaintext_log == [
        item for request in requests for item in (request, b"OK:" + request)]
    assert stats.served == len(requests)
    assert stats.shed == 0 and stats.degraded == 0
    assert runtime.breaker_for(ORIGIN).transitions == []


# -- breaker end-to-end ------------------------------------------------------


def test_broken_wired_leg_degrades_then_reconnects():
    """A failed TLS exchange toward the origin answers degraded and
    drops the cached leg; the next request reconnects over a fresh
    handshake."""
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED)
    handset = handsets["handset-00"]

    def round_trip(request: bytes) -> bytes:
        handset.send(request)
        runtime.submit("handset-00", ORIGIN)
        runtime.run()
        return handset.receive()

    assert round_trip(b"warm up") == b"OK:warm up"
    # Desynchronise the cached TLS leg: its next record fails MAC.
    gateway_side, _origin_side = runtime._wired_legs[ORIGIN]
    gateway_side.session.encoder._sequence += 1
    assert round_trip(b"in the storm") == (
        DEGRADED_PREFIX + b" origin unavailable (BadRecordMAC)")
    assert ORIGIN not in runtime._wired_legs
    assert round_trip(b"after the storm") == b"OK:after the storm"
    assert runtime.stats.wired_failures == 1
    assert runtime.stats.degraded == 1
    assert runtime.breaker_for(ORIGIN).state == CLOSED


def test_outage_window_drives_breaker_cycle():
    config = RuntimeConfig(
        bucket_capacity=32.0, bucket_refill_per_s=32.0,
        service_time_s=0.05)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, config=config)
    _outage(runtime, until_s=0.5)
    # Six requests inside/around the outage open the breaker and then
    # fast-fail; three late ones arrive after the cooling period.
    offsets = [index * 0.1 for index in range(6)] + [5.5, 5.6, 5.7]
    for index, offset in enumerate(offsets):
        handsets["handset-00"].send(f"r{index}".encode())
        runtime.submit("handset-00", ORIGIN, arrival_offset_s=offset)
    stats = runtime.run()
    breaker = runtime.breaker_for(ORIGIN)
    assert [(when, to) for when, _, to in breaker.transitions] == [
        (pytest.approx(0.25), OPEN), (pytest.approx(5.55), HALF_OPEN),
        (pytest.approx(5.55), CLOSED)]
    assert stats.wired_failures == BREAKER_FAILURE_THRESHOLD
    assert stats.breaker_fast_fails == 3
    assert stats.answered == stats.submitted
    # After the breaker re-closed, requests are served for real again.
    assert [classify_reply(reply)
            for reply in _drain(handsets)["handset-00"]] == [
        "degraded"] * 6 + ["served"] * 3


# -- the acceptance scenario -------------------------------------------------


def _acceptance_run(seed: int):
    """One full chaos run: 32 sessions, origin outage, accelerator
    failure, battery brownout, supervisor on the runtime clock."""
    config = RuntimeConfig(
        queue_limit=16, bucket_capacity=12.0, bucket_refill_per_s=6.0,
        service_time_s=0.05)
    battery = Battery(capacity_j=100.0)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=32, seed=seed, config=config,
        batteries={"handset-00": battery})
    _outage(runtime, until_s=0.7)

    # Device-side chaos on the same virtual clock: the accelerator dies
    # at t=0.5 and recovers at t=2.0; the battery sags at t=1.0.
    plan = FaultPlan()
    plan.add_brownout(BatteryBrownout(battery, at_s=1.0, to_fraction=0.0))
    engines = wrap_engines(
        list(reversed(architecture_ladder(ARM7))), runtime.clock,
        fail_at_s=0.5, recover_at_s=2.0, seed=seed)
    supervisor = ApplianceSupervisor(
        engines, battery=battery, clock=runtime.clock, fault_plan=plan,
        probe_interval_s=0.5)
    workload = BulkWorkload(kilobytes=1.0, cipher="AES", mac="SHA1")
    engines_used = []

    def ticker(now: float) -> None:
        supervisor.poll(now)
        engines_used.append(supervisor.execute(workload).engine)

    runtime.add_ticker(ticker)

    # Rounds 2.8 s apart: the last arrives after the breaker the outage
    # opened has cooled for BREAKER_RESET_S.
    for round_index in range(3):
        for slot, session_id in enumerate(sorted(handsets)):
            handsets[session_id].send(
                f"req-{session_id}-{round_index}".encode())
            runtime.submit(session_id, ORIGIN,
                           arrival_offset_s=round_index * 2.8
                           + slot * 0.02)
    stats = runtime.run()
    replies = _drain(handsets)
    return runtime, stats, supervisor, replies, engines_used


def test_acceptance_chaos_scenario():
    runtime, stats, supervisor, replies, engines_used = \
        _acceptance_run(CHAOS_SEED)

    # Every one of the 96 requests got exactly one answer.
    assert stats.submitted == 96
    assert stats.answered == stats.submitted
    flat = [reply for session in replies.values() for reply in session]
    assert len(flat) == stats.submitted
    kinds = [classify_reply(reply) for reply in flat]
    assert kinds.count("served") == stats.served
    assert kinds.count("degraded") == stats.degraded
    assert kinds.count("shed") == stats.shed
    assert stats.served > 0 and stats.degraded > 0 and stats.shed > 0

    # The breaker provably cycled closed -> open -> half-open -> closed.
    history = runtime.breaker_for(ORIGIN).state_history()
    assert history == [OPEN, HALF_OPEN, CLOSED]
    assert stats.breaker_fast_fails > 0

    # The accelerator died and the supervisor walked the ladder down to
    # software, then restored the hardware engine after recovery.
    assert supervisor.report.engine_fallbacks > 0
    assert supervisor.report.engine_restorations > 0
    assert "software" in engines_used
    assert engines_used[0] != "software"
    assert engines_used[-1] != "software"

    # The brownout was absorbed: refused charges, suite stepped down.
    assert stats.battery_refusals > 0
    assert supervisor.report.suite_downgrades >= 1


def test_acceptance_chaos_scenario_is_deterministic():
    first = _acceptance_run(CHAOS_SEED)
    second = _acceptance_run(CHAOS_SEED)
    assert first[3] == second[3]                      # reply bytes
    assert first[1] == second[1]                      # full stats ledger
    assert (first[0].breaker_for(ORIGIN).transitions
            == second[0].breaker_for(ORIGIN).transitions)
    assert (first[2].report.actions() == second[2].report.actions())
    assert first[4] == second[4]                      # engine schedule


# -- adversarial hardening (PR 7) --------------------------------------------


def test_breaker_half_open_admits_exactly_one_probe():
    """Concurrent sessions racing the half-open slot: only the first
    ``allow`` wins the probe; the rest fast-fail until it resolves."""
    breaker = _tripped_breaker()

    # Cooling period over: the first caller transitions to half-open
    # and claims the single probe slot.
    assert breaker.allow(5.5) is True
    assert breaker.state == HALF_OPEN
    # Every racer while the probe is in flight is fast-failed.
    fast_fails_before = breaker.fast_fails
    assert breaker.allow(5.5) is False
    assert breaker.allow(5.6) is False
    assert breaker.fast_fails == fast_fails_before + 2
    assert breaker.state == HALF_OPEN

    # Probe succeeds: breaker closes, everyone may pass again.
    breaker.record_success(5.7)
    assert breaker.state == CLOSED
    assert breaker.allow(5.8) is True and breaker.allow(5.8) is True


def test_breaker_failed_probe_releases_slot_for_next_cycle():
    breaker = _tripped_breaker()
    assert breaker.allow(5.5) is True          # probe slot claimed
    breaker.record_failure(5.6)                # probe failed -> reopen
    assert breaker.state == OPEN
    assert breaker.allow(5.7) is False         # back in cooling
    # Next cooling period: a fresh probe slot is available again.
    assert breaker.allow(10.7) is True
    assert breaker.allow(10.7) is False


def test_seconds_until_token_at_exact_refill_boundaries():
    bucket = TokenBucket(capacity=2.0, refill_per_s=4.0)
    assert bucket.try_take(0.0) and bucket.try_take(0.0)
    # Empty at t=0: next token exactly 0.25s away.
    assert bucket.seconds_until_token(0.0) == pytest.approx(0.25)
    # At the exact refill instant the answer must be 0, not an epsilon.
    assert bucket.seconds_until_token(0.25) == 0.0
    assert bucket.try_take(0.25) is True
    # Straight after consuming at the boundary: a full period again.
    assert bucket.seconds_until_token(0.25) == pytest.approx(0.25)
    # Midway through a period, the residual fraction.
    assert bucket.seconds_until_token(0.375) == pytest.approx(0.125)


def test_shed_energy_charged_to_battery_per_reason():
    """GW-BUSY answers cost real handset battery and are booked per
    shed reason — attacker-induced shedding is never free."""
    config = RuntimeConfig(bucket_capacity=1.0, bucket_refill_per_s=1.0)
    battery = Battery(capacity_j=5.0)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, config=config,
        batteries={"handset-00": battery})
    for index in range(3):
        handsets["handset-00"].send(f"r{index}".encode())
        runtime.submit("handset-00", ORIGIN)
    stats = runtime.run()
    assert stats.shed_rate_limited == 2
    shed_mj = stats.shed_energy_mj["rate-limited"]
    assert shed_mj > 0.0
    # The shed replies' energy is part of (not additional to) the
    # total radio ledger, and the battery actually paid for it.
    assert shed_mj < stats.energy_mj
    assert battery.remaining_j < battery.capacity_j


def test_injected_garbage_is_skipped_and_counted():
    """Wire-injected malformed frames ahead of a benign request are
    skipped (counted) and the request still served."""
    from repro.protocols.faults import FaultyChannel

    channel = FaultyChannel(seed=7)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED,
        channel_factory=lambda sid: channel)
    handsets["handset-00"].send(b"real request")
    for index in range(3):
        channel.inject("a->b", b"\x17garbage-%d" % index, front=True)
    runtime.submit("handset-00", ORIGIN)
    stats = runtime.run()
    assert stats.malformed_discarded == 3
    assert stats.shed_malformed == 0
    assert stats.served == 1
    reply = handsets["handset-00"].receive()
    assert classify_reply(reply) == "served"


def test_malformed_flood_sheds_structurally():
    """A garbage flood past the skip budget exhausts the receive and
    answers a structured ``malformed`` shed — never an exception."""
    from repro.protocols.faults import FaultyChannel

    channel = FaultyChannel(seed=7)
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=1, seed=CHAOS_SEED, channel_factory=lambda sid: channel)
    handsets["handset-00"].send(b"drowned request")
    for index in range(MALFORMED_SKIP + 4):
        channel.inject("a->b", b"\x15junk-%d" % index, front=True)
    runtime.submit("handset-00", ORIGIN)
    stats = runtime.run()
    assert stats.shed_malformed == 1
    assert stats.malformed_discarded == MALFORMED_SKIP + 1
    assert stats.answered == stats.submitted
    reply = handsets["handset-00"].receive()
    assert reply.startswith(b"GW-BUSY: reason=malformed")
    assert stats.shed_energy_mj["malformed"] > 0.0
