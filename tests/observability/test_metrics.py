"""Metrics registry and the ledger adapters (satellite: one scrape
unifies every pre-existing ad-hoc counter, old attributes untouched)."""

import pytest

from repro.hardware.battery import Battery
from repro.observability.metrics import (
    MetricsRegistry,
    attach_ledger,
    export_battery,
    export_gateway,
)
from repro.protocols.faults import FaultStats
from repro.protocols.gateway_runtime import RuntimeStats


class TestPrimitives:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "test counter")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_counter_labels_are_independent_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("replies_total")
        counter.inc(outcome="served")
        counter.inc(outcome="served")
        counter.inc(outcome="shed")
        assert counter.value(outcome="served") == 2.0
        assert counter.value(outcome="shed") == 1.0
        assert counter.value(outcome="degraded") == 0.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("ups_total").inc(-1.0)

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        counter = registry.counter("thing_total")
        assert registry.counter("thing_total") is counter

    def test_registry_value_raises_on_unknown_series(self):
        registry = MetricsRegistry()
        registry.counter("known_total").inc()
        with pytest.raises(KeyError):
            registry.value("unknown_total")

    def test_render_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", "second").inc(2.0, kind="x")
            registry.counter("a_total", "first").inc()
            registry.register_collector(
                lambda: [("c", {"shard": "s1"}, 1.5)])
            return registry.render()

        first, second = build(), build()
        assert first == second
        assert first == (
            "# HELP a_total first\n"
            "# TYPE a_total counter\n"
            "a_total 1\n"
            "# HELP b_total second\n"
            "# TYPE b_total counter\n"
            'b_total{kind="x"} 2\n'
            "# TYPE c gauge\n"
            'c{shard="s1"} 1.5\n')


class TestLedgerAdapters:
    def test_attach_ledger_reads_through_live(self):
        registry = MetricsRegistry()
        stats = FaultStats()
        attach_ledger(registry, "repro_channel_faults", stats,
                      fields=["drops", "burst_drops", "total_drops"],
                      labels={"channel": "radio"})
        assert registry.value("repro_channel_faults_drops",
                              channel="radio") == 0.0
        stats.drops += 3          # the old idiom keeps working
        stats.burst_drops += 2
        assert registry.value("repro_channel_faults_drops",
                              channel="radio") == 3.0
        # Property fields ride along too.
        assert stats.total_drops == 5
        assert registry.value("repro_channel_faults_total_drops",
                              channel="radio") == 5.0

    def test_battery_adapter_tracks_drain(self):
        registry = MetricsRegistry()
        battery = Battery(capacity_j=1.0)
        export_battery(registry, battery, device="handset-00")
        battery.drain_mj(250.0)
        assert registry.value("repro_battery_drained_mj",
                              device="handset-00") == pytest.approx(250.0)
        assert registry.value("repro_battery_fraction_remaining",
                              device="handset-00") == pytest.approx(0.75)

    def test_gateway_adapter_counts_plaintext_exposure(self):
        class FakeRuntime:
            def __init__(self):
                self.stats = RuntimeStats()
                self.plaintext_log = []

        registry = MetricsRegistry()
        runtime = FakeRuntime()
        export_gateway(registry, runtime)
        runtime.plaintext_log.extend([b"req", b"resp"])
        runtime.stats.degraded = 1
        runtime.stats.wired_failures = 2
        runtime.stats.handler_failures = 3
        assert registry.value("repro_gateway_plaintext_records") == 2.0
        assert registry.value("repro_gateway_degraded_responses") == 1.0
        assert registry.value("repro_gateway_wired_leg_failures") == 2.0
        assert registry.value("repro_gateway_handler_failures") == 3.0

    def test_attach_ledger_skips_non_numeric(self):
        class Mixed:
            def __init__(self):
                self.count = 4
                self.label = "not-a-number"
                self.flag = True

        registry = MetricsRegistry()
        attach_ledger(registry, "repro_mixed", Mixed())
        names = {name for name, _key, _v in registry.samples()}
        assert names == {"repro_mixed_count"}
