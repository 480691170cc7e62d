"""Span trees, deterministic identities, and the probe seam contract."""

import sys

import pytest

from repro.observability import probe
from repro.observability.export import to_jsonl
from repro.observability.spans import (
    Span,
    Telemetry,
    derive_trace_id,
    fnv1a_64,
)
from repro.protocols.reliable import VirtualClock


class TestDeterministicIdentity:
    def test_fnv1a_offset_basis(self):
        # FNV-1a of the empty string is the offset basis by definition.
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_fnv1a_known_vector(self):
        # Classic FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_trace_id_is_pure_function_of_seed(self):
        assert derive_trace_id("x", 1) == derive_trace_id("x", 1)
        assert derive_trace_id("x", 1) != derive_trace_id("x", 2)
        assert derive_trace_id("x", 1) != derive_trace_id("y", 1)
        assert len(derive_trace_id("x", 1)) == 16

    def test_same_seed_same_trace_id(self):
        a = Telemetry(seed=("chaos", 32, 0), label="gateway")
        b = Telemetry(seed=("chaos", 32, 0), label="gateway")
        assert a.trace_id == b.trace_id

    def test_span_ids_sequential(self):
        telemetry = Telemetry()
        with telemetry.span("one"):
            with telemetry.span("two"):
                pass
        with telemetry.span("three"):
            pass
        assert [s.span_id for s in telemetry.spans] == [1, 2, 3]


class TestSpanTree:
    def test_nesting_sets_parent_ids(self):
        telemetry = Telemetry()
        with telemetry.span("session") as session:
            with telemetry.span("handshake") as handshake:
                with telemetry.span("kex") as kex:
                    pass
        assert session.parent_id is None
        assert handshake.parent_id == session.span_id
        assert kex.parent_id == handshake.span_id
        assert telemetry.children(session) == [handshake]
        assert telemetry.open_spans() == []

    def test_siblings_share_parent(self):
        telemetry = Telemetry()
        with telemetry.span("record") as parent:
            with telemetry.span("cipher"):
                pass
            with telemetry.span("mac"):
                pass
        names = [s.name for s in telemetry.children(parent)]
        assert names == ["cipher", "mac"]

    def test_strict_stack_discipline(self):
        telemetry = Telemetry()
        outer = telemetry.start_span("outer")
        telemetry.start_span("inner")
        with pytest.raises(RuntimeError):
            telemetry.end_span(outer)

    def test_virtual_clock_stamps(self):
        clock = VirtualClock()
        telemetry = Telemetry(clock=clock)
        span = telemetry.start_span("work")
        clock.advance_to(2.5)
        telemetry.end_span(span)
        assert span.start_s == 0.0
        assert span.end_s == 2.5
        assert span.duration_s == 2.5

    def test_exception_still_closes_span(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        assert telemetry.open_spans() == []
        assert telemetry.spans[0].end_s is not None

    def test_events_attach_to_current_span_or_trace(self):
        telemetry = Telemetry()
        telemetry.event("trace-level", detail="a")
        with telemetry.span("work") as span:
            telemetry.event("span-level", detail="b")
        assert [e.name for e in telemetry.events] == ["trace-level"]
        assert [e.name for e in span.events] == ["span-level"]

    def test_event_stores_the_dict_it_is_handed(self):
        telemetry = Telemetry()
        handed = []

        def profile(frame, kind, arg):
            if kind == "return" and frame.f_code is Telemetry.event.__code__:
                handed.append(frame.f_locals["attrs"])

        attrs = {"ok": True}
        sys.setprofile(profile)
        try:
            event = telemetry.event("mac.check", **attrs)
        finally:
            sys.setprofile(None)
        assert event.attrs is handed[0]
        # ``**attrs`` built a fresh dict: the caller's is never aliased.
        assert event.attrs == attrs and event.attrs is not attrs

    def test_span_without_events_holds_no_list(self):
        telemetry = Telemetry()
        with telemetry.span("quiet") as quiet:
            pass
        with telemetry.span("busy") as busy:
            telemetry.event("first")
        assert quiet.events == () and not isinstance(quiet.events, list)
        assert isinstance(busy.events, list) and len(busy.events) == 1
        assert '"events":[]' in to_jsonl(telemetry).splitlines()[1]

    def test_span_with_two_events_exports_the_same_line(self):
        telemetry = Telemetry(label="events")
        with telemetry.span("record.decode", suite="3des"):
            telemetry.event("mac.check", ok=True)
            telemetry.event("pad.strip", n=3)
        assert to_jsonl(telemetry).splitlines()[1] == (
            '{"attrs":{"suite":"3des"},"cycles":0.0,"end_s":3.0,'
            '"energy_mj":0.0,"events":[{"attrs":{"ok":true},'
            '"name":"mac.check","time_s":1.0},{"attrs":{"n":3},'
            '"name":"pad.strip","time_s":2.0}],"id":1,'
            '"name":"record.decode","parent":null,"start_s":0.0,'
            '"type":"span"}')

    def test_attrs_set_and_find(self):
        telemetry = Telemetry()
        with telemetry.span("record", n=42) as span:
            span.set(path="fast")
        found = telemetry.find("record")
        assert found == [span]
        assert span.attrs == {"n": 42, "path": "fast"}


class TestAttributionSinks:
    def test_energy_charges_innermost_span(self):
        telemetry = Telemetry()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                telemetry.add_energy_mj(3.0)
            telemetry.add_energy_mj(1.0)
        assert inner.energy_mj == 3.0
        assert outer.energy_mj == 1.0
        assert telemetry.total_energy_mj() == 4.0

    def test_unattributed_bucket(self):
        telemetry = Telemetry()
        telemetry.add_energy_mj(2.0)
        telemetry.add_cycles(100.0)
        assert telemetry.unattributed_mj == 2.0
        assert telemetry.unattributed_cycles == 100.0
        assert telemetry.total_energy_mj() == 2.0
        assert telemetry.total_cycles() == 100.0

    def test_negative_charge_changes_nothing(self):
        telemetry = Telemetry()
        with telemetry.span("handshake") as span:
            telemetry.add_energy_mj(1.0)
            telemetry.add_cycles(10.0)
            with pytest.raises(ValueError):
                telemetry.add_energy_mj(-0.5)
            with pytest.raises(ValueError):
                telemetry.add_cycles(-1.0)
        with pytest.raises(ValueError):
            telemetry.add_energy_mj(-0.5)
        with pytest.raises(ValueError):
            telemetry.add_cycles(-1.0)
        assert (span.energy_mj, span.cycles) == (1.0, 10.0)
        assert (telemetry.unattributed_mj, telemetry.unattributed_cycles) \
            == (0.0, 0.0)
        # The span totals and the counters still agree.
        assert telemetry.registry.value(
            "repro_telemetry_energy_mj_total",
            kind="battery", span="handshake") == telemetry.total_energy_mj()
        assert telemetry.registry.value(
            "repro_telemetry_cycles_total",
            kind="model", span="handshake") == telemetry.total_cycles()

    def test_cached_label_keys_export_like_counter_inc(self):
        # (span to open, "" for none, or None to close the innermost;
        # energy mJ, cycles, kind).  The charges before, between and
        # after spans land on "<none>".
        script = [
            ("", 0.5, 10.0, "battery"), ("handshake", 1.5, 1e6, "battery"),
            ("kdf", 0.25, 300.0, "model"), ("kdf", 0.25, 300.0, "model"),
            (None, 2.0, 50.0, "battery"), (None, 0.125, 7.0, "radio"),
            ("", 0.75, 20.0, "battery"), ("record", 3.0, 4e5, "radio"),
            (None, 1.0, 1.0, "battery"),
        ]

        def run(through_keys: bool) -> Telemetry:
            telemetry = Telemetry(seed=("labels", 1))
            for action, energy, cycles, kind in script:
                if action is None:
                    telemetry.end_span(telemetry.current)
                elif action:
                    telemetry.start_span(action)
                if through_keys:
                    telemetry.add_energy_mj(energy, kind=kind)
                    telemetry.add_cycles(cycles, kind=kind)
                    continue
                current = telemetry.current
                name = current.name if current is not None else "<none>"
                if current is not None:
                    current.energy_mj += energy
                    current.cycles += cycles
                else:
                    telemetry.unattributed_mj += energy
                    telemetry.unattributed_cycles += cycles
                telemetry.registry.counter(
                    "repro_telemetry_energy_mj_total").inc(
                        energy, kind=kind, span=name)
                telemetry.registry.counter(
                    "repro_telemetry_cycles_total").inc(
                        cycles, kind=kind, span=name)
            return telemetry

        cached, reference = run(True), run(False)
        assert 'span="<none>"' in cached.registry.render()
        assert cached.registry.render() == reference.registry.render()
        assert to_jsonl(cached) == to_jsonl(reference)

    def test_sinks_mirror_into_registry(self):
        telemetry = Telemetry()
        with telemetry.span("handshake"):
            telemetry.add_energy_mj(1.5, kind="battery")
            telemetry.add_cycles(1e6, kind="model")
        assert telemetry.registry.value(
            "repro_telemetry_energy_mj_total",
            kind="battery", span="handshake") == 1.5
        assert telemetry.registry.value(
            "repro_telemetry_cycles_total",
            kind="model", span="handshake") == 1e6


class TestProbeSeam:
    def test_disabled_by_default(self):
        assert probe.active is None

    def test_disabled_span_is_shared_null_context(self):
        assert probe.span("anything", n=1) is probe.span("other")
        with probe.span("no-op") as span:
            assert span is None

    def test_disabled_event_is_noop(self):
        probe.event("nothing", detail="ignored")  # must not raise

    def test_activate_restores_previous(self):
        outer = Telemetry(label="outer")
        inner = Telemetry(label="inner")
        with probe.activate(outer):
            assert probe.active is outer
            with probe.activate(inner):
                assert probe.active is inner
            assert probe.active is outer
        assert probe.active is None

    def test_activate_restores_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with probe.activate(telemetry):
                raise RuntimeError("boom")
        assert probe.active is None

    def test_active_probe_span_binds_the_live_span(self):
        telemetry = Telemetry()
        with probe.activate(telemetry):
            with probe.span("live") as span:
                assert span is telemetry.spans[0]
        assert span.end_s is not None


class TestSpanContextManager:
    def test_with_binds_the_returned_span(self):
        telemetry = Telemetry()
        with telemetry.span("handshake", suite="aes") as span:
            assert isinstance(span, Span)
            assert span is telemetry.spans[0]
            assert telemetry.current is span
            assert span.attrs == {"suite": "aes"}
        assert span.end_s is not None
        assert telemetry.open_spans() == []

    def test_span_goes_through_start_span_once(self):
        class Counting(Telemetry):
            starts = 0

            def start_span(self, name, **attrs):
                self.starts += 1
                return super().start_span(name, **attrs)

        telemetry = Counting()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert telemetry.starts == 2
        assert len(telemetry.spans) == 2

    def test_exit_goes_through_end_span(self):
        class Counting(Telemetry):
            ends = 0

            def end_span(self, span):
                self.ends += 1
                super().end_span(span)

        telemetry = Counting()
        with telemetry.span("one"):
            pass
        assert telemetry.ends == 1

    def test_spans_are_slotted(self):
        telemetry = Telemetry()
        with telemetry.span("handshake") as span:
            pass
        assert not hasattr(span, "__dict__")
        with pytest.raises(AttributeError):
            span.undeclared = 1

    def test_start_span_stores_the_attrs_it_is_given(self):
        telemetry = Telemetry()
        attrs = {"suite": "aes", "shard": 2}
        span = telemetry.start_span("handshake", **attrs)
        assert span.attrs == attrs
        # ``**attrs`` built a fresh dict: the caller's is never aliased.
        span.set(path="fast")
        assert attrs == {"suite": "aes", "shard": 2}
        telemetry.end_span(span)

    def test_repr_leaves_out_the_telemetry(self):
        telemetry = Telemetry(label="marker-label")
        with telemetry.span("handshake") as span:
            pass
        assert span.telemetry is telemetry
        text = repr(span)
        assert "handshake" in text
        assert "telemetry" not in text
        assert "Telemetry" not in text
        assert "marker-label" not in text
