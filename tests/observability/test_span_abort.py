"""Span-stack hygiene when a shard dies mid-span (satellite 2).

A crash is the one event that may close spans out of stack order: the
telemetry layer provides ``abort_span`` / ``abort_where`` to force-
close an open subtree with ``aborted=true``, and ``end_span`` must
then tolerate the owning ``with`` block unwinding over the corpse —
without loosening the strict-discipline error for genuine misuse.
"""

import dataclasses

import pytest

from repro.observability.spans import Telemetry


class TestAbortSpan:
    def test_abort_closes_span_and_children(self):
        telemetry = Telemetry()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                aborted = telemetry.abort_span(outer, reason="crash")
        assert [span.name for span in aborted] == ["inner", "outer"]
        for span in (outer, inner):
            assert span.end_s is not None
            assert span.attrs["aborted"] is True
        assert outer.attrs["reason"] == "crash"

    def test_with_block_unwinds_over_aborted_span(self):
        telemetry = Telemetry()
        # The context managers above already exercised this; assert the
        # stack really is clean and new spans still work.
        with telemetry.span("a") as a:
            telemetry.abort_span(a)
        with telemetry.span("b"):
            pass
        assert telemetry.spans[-1].name == "b"
        assert telemetry.spans[-1].end_s is not None

    def test_abort_requires_open_span(self):
        telemetry = Telemetry()
        with telemetry.span("done") as span:
            pass
        with pytest.raises(RuntimeError):
            telemetry.abort_span(span)

    def test_abort_rejects_an_equal_span_of_another_trace(self):
        # Two same-seed traces mint field-for-field equal spans; only
        # identity may decide whether a span is open in this trace.
        a, b = Telemetry(seed=1), Telemetry(seed=1)
        x = b.start_span("x")
        y = b.start_span("y")
        stranger = a.start_span("x")
        with pytest.raises(RuntimeError):
            b.abort_span(stranger)
        assert b.open_spans() == [x, y]
        assert "aborted" not in x.attrs and "aborted" not in y.attrs
        with pytest.raises(RuntimeError):
            b.end_span(stranger)

    def test_spans_compare_by_identity(self):
        a, b = Telemetry(seed=1), Telemetry(seed=1)
        with a.span("x") as first, b.span("x") as second:
            assert first != second
            assert first == first
            clone = dataclasses.replace(first)
            assert clone != first
            assert len({first, clone}) == 2

    def test_abort_rejects_a_field_for_field_copy(self):
        telemetry = Telemetry()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                with pytest.raises(RuntimeError):
                    telemetry.abort_span(dataclasses.replace(outer))
                assert telemetry.open_spans() == [outer, inner]

    def test_strict_discipline_still_enforced(self):
        telemetry = Telemetry()
        span = telemetry.start_span("open")
        other = telemetry.start_span("inner")
        with pytest.raises(RuntimeError):
            telemetry.end_span(span)  # not innermost, not aborted
        assert telemetry.open_spans() == [span, other]
        assert span.end_s is None
        telemetry.end_span(other)
        with pytest.raises(RuntimeError):
            telemetry.end_span(other)  # closed, not aborted
        telemetry.end_span(span)
        with pytest.raises(RuntimeError):
            telemetry.end_span(span)  # empty stack

    def test_end_span_of_an_aborted_span_is_a_noop(self):
        telemetry = Telemetry()
        outer = telemetry.start_span("outer")
        inner = telemetry.start_span("inner")
        telemetry.abort_span(outer)
        ended = (outer.end_s, inner.end_s)
        telemetry.end_span(inner)
        telemetry.end_span(outer)
        assert (outer.end_s, inner.end_s) == ended
        assert telemetry.open_spans() == []

    def test_abort_where_outermost_match(self):
        telemetry = Telemetry()
        with telemetry.span("keep"):
            with telemetry.span("shard.work", shard="shard-01") as work:
                with telemetry.span("nested") as nested:
                    aborted = telemetry.abort_where(
                        lambda s: s.attrs.get("shard") == "shard-01",
                        abort_reason="shard-crash")
                assert {s.name for s in aborted} == {"shard.work", "nested"}
                assert work.attrs["abort_reason"] == "shard-crash"
                assert nested.attrs["aborted"] is True
        # The unmatched outer span closed normally.
        keep = telemetry.spans[0]
        assert keep.name == "keep"
        assert "aborted" not in keep.attrs

    def test_abort_where_no_match_is_noop(self):
        telemetry = Telemetry()
        with telemetry.span("a"):
            assert telemetry.abort_where(lambda s: False) == []

    def test_aborted_spans_keep_energy(self):
        telemetry = Telemetry()
        with telemetry.span("charged") as span:
            telemetry.add_energy_mj(1.5, kind="radio")
            telemetry.abort_span(span)
        assert span.energy_mj == pytest.approx(1.5)
