"""TraceContext propagation and the fleet trace store."""

import pytest

from repro.observability.spans import Telemetry
from repro.observability.tracecontext import (
    CTX_PARENT,
    CTX_TRACE,
    FleetTraceStore,
    TraceContext,
    attach,
    baggage_attrs,
    context_of,
)
from repro.protocols.reliable import VirtualClock


class TestTraceContext:
    def test_root_is_pure_function_of_seed(self):
        a = TraceContext.root("journey", "s-1", 2003, session="s-1")
        b = TraceContext.root("journey", "s-1", 2003, session="s-1")
        c = TraceContext.root("journey", "s-2", 2003, session="s-2")
        assert a.trace_id == b.trace_id
        assert a.trace_id != c.trace_id
        assert a.parent_span == 0

    def test_baggage_sorted_and_readable(self):
        ctx = TraceContext.root("j", 1, shard="shard-01", session="s-9")
        assert ctx.baggage == (("session", "s-9"), ("shard", "shard-01"))
        assert ctx.get("shard") == "shard-01"
        assert ctx.get("missing") is None
        assert ctx.get("missing", "x") == "x"

    def test_with_baggage_replaces_and_stays_canonical(self):
        ctx = TraceContext.root("j", 1, shard="a", session="s")
        moved = ctx.with_baggage(shard="b", tier="warm")
        assert moved.trace_id == ctx.trace_id
        assert moved.get("shard") == "b"
        assert moved.get("tier") == "warm"
        assert ctx.get("shard") == "a"  # original untouched
        assert moved.baggage == tuple(sorted(moved.baggage))


class TestWireForm:
    def test_round_trip(self):
        ctx = TraceContext.root("j", 7, session="s-0", shard="shard-02",
                                handset_class="5J")
        assert TraceContext.from_bytes(ctx.to_bytes()) == ctx

    def test_round_trip_empty_baggage(self):
        ctx = TraceContext(trace_id="abcd", parent_span=9)
        assert TraceContext.from_bytes(ctx.to_bytes()) == ctx

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceContext.from_bytes(b"")

    def test_unknown_version_rejected(self):
        raw = TraceContext.root("j", 1).to_bytes()
        with pytest.raises(ValueError):
            TraceContext.from_bytes(bytes([99]) + raw[1:])

    def test_truncation_rejected(self):
        raw = TraceContext.root("j", 1, session="s").to_bytes()
        for cut in (1, len(raw) // 2, len(raw) - 1):
            with pytest.raises(ValueError):
                TraceContext.from_bytes(raw[:cut])

    def test_trailing_bytes_rejected(self):
        raw = TraceContext.root("j", 1).to_bytes()
        with pytest.raises(ValueError):
            TraceContext.from_bytes(raw + b"\x00")


class TestAttach:
    def test_attach_and_recover(self):
        telemetry = Telemetry()
        ctx = TraceContext.root("j", 1, session="s-3", shard="shard-00")
        with telemetry.span("fleet.attach") as span:
            attach(span, ctx)
        assert span.attrs[CTX_TRACE] == ctx.trace_id
        assert span.attrs[CTX_PARENT] == 0
        assert span.attrs["bg.session"] == "s-3"
        assert context_of(span) == ctx

    def test_context_of_plain_span_is_none(self):
        telemetry = Telemetry()
        with telemetry.span("plain") as span:
            pass
        assert context_of(span) is None

    def test_baggage_attrs_for_events(self):
        ctx = TraceContext.root("j", 1, session="s")
        attrs = baggage_attrs(ctx)
        assert attrs[CTX_TRACE] == ctx.trace_id
        assert attrs["bg.session"] == "s"


def _sharded_telemetry():
    """Two shards' worth of spans on one telemetry, interleaved."""
    clock = VirtualClock()
    telemetry = Telemetry(seed=("store-test",), clock=clock)
    ctx = TraceContext.root("j", "s-0", session="s-0")
    with telemetry.span("fleet.attach", shard="shard-00") as span:
        attach(span, ctx)
        with telemetry.span("handshake"):  # inherits shard-00
            pass
    clock.advance_to(1.0)
    with telemetry.span("fleet.recover", shard="shard-01",
                        tier="warm") as span:
        attach(span, ctx.with_baggage(shard="shard-01"))
    with telemetry.span("supervisor.sweep"):  # no shard anywhere
        pass
    return telemetry, ctx


class TestFleetTraceStore:
    def test_partition_inherits_shard_from_ancestors(self):
        telemetry, _ = _sharded_telemetry()
        store = FleetTraceStore.partition(telemetry)
        assert store.streams() == ["fleet", "shard-00", "shard-01"]
        merged = store.merged()
        by_name = {span.name: stream
                   for _t, stream, _id, span in merged}
        assert by_name["handshake"] == "shard-00"
        assert by_name["fleet.recover"] == "shard-01"
        assert by_name["supervisor.sweep"] == "fleet"

    def test_merged_order_is_time_stream_id(self):
        telemetry, _ = _sharded_telemetry()
        store = FleetTraceStore.partition(telemetry)
        rows = [(t, stream, span_id)
                for t, stream, span_id, _span in store.merged()]
        assert rows == sorted(rows)

    def test_journeys_stitch_across_streams(self):
        telemetry, ctx = _sharded_telemetry()
        store = FleetTraceStore.partition(telemetry)
        journeys = store.journeys()
        assert set(journeys) == {ctx.trace_id}
        journey = journeys[ctx.trace_id]
        assert journey.session == "s-0"
        assert journey.shards == ["shard-00", "shard-01"]
        assert journey.tiers == ["warm"]
        assert journey.span_count == 2
        assert store.journey(ctx.trace_id) is not None
        assert store.journey("nope") is None

    def test_add_stream_multi_telemetry_shape(self):
        a = Telemetry(seed=("a",))
        b = Telemetry(seed=("b",))
        with a.span("one"):
            pass
        with b.span("two"):
            pass
        store = FleetTraceStore()
        store.add_stream("shard-a", a.spans)
        store.add_stream("shard-b", b.spans)
        assert store.streams() == ["shard-a", "shard-b"]
        assert len(store.merged()) == 2
