"""Windowed time-series metrics on the virtual clock.

The metrics registry answers "what is the total now"; a fleet operator
asks "what happened *per window* — goodput this second, p95 latency
during the failover storm, energy split while the attacker fired".
This module adds the windowed layer, deterministic by construction:

* :class:`~repro.observability.metrics.QuantileSketch` per window —
  the mergeable fixed-bucket sketch that
  :func:`~repro.observability.metrics.quantile_of` also fills.
  Merging is element-wise count addition, so per-shard window sketches
  combine into fleet-wide ones without re-observing anything;
* :class:`WindowedSeries` — fixed-width tumbling sub-buckets in a
  bounded ring (deterministic eviction: lowest index first), with
  sliding windows derived by merging ``width / slide`` adjacent
  sub-buckets.  All timestamps are virtual seconds from the shared
  :class:`~repro.protocols.reliable.VirtualClock`; nothing here reads
  wall time.

Feed path: :func:`series_collector` adapts a
:class:`~repro.observability.metrics.MetricsRegistry` ``register_collector``
hook so the latest finalized window of every series shows up in the
ordinary scrape (``<name>_window`` gauges) alongside the cumulative
metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .metrics import LATENCY_BUCKETS, MetricsRegistry, QuantileSketch


@dataclass
class Window:
    """One finalized (or still-filling) window of a series."""

    start_s: float
    end_s: float
    count: float = 0.0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    sketch: Optional[QuantileSketch] = None

    def as_dict(self, digits: int = 6) -> Dict[str, object]:
        """JSON-ready form (floats rounded for byte stability)."""
        out: Dict[str, object] = {
            "start_s": round(self.start_s, digits),
            "end_s": round(self.end_s, digits),
            "count": round(self.count, digits),
            "sum": round(self.sum, digits),
        }
        if self.count:
            out["min"] = round(self.min, digits)
            out["max"] = round(self.max, digits)
        if self.sketch is not None and self.sketch.total:
            out["p50"] = round(self.sketch.quantile(0.50), digits)
            out["p95"] = round(self.sketch.quantile(0.95), digits)
            out["p99"] = round(self.sketch.quantile(0.99), digits)
        return out


class WindowedSeries:
    """One named series of fixed-width windows on the virtual clock.

    ``width_s`` is the tumbling window width; ``slide_s`` (defaulting
    to ``width_s``) must divide it, and sliding windows are produced by
    merging ``width_s / slide_s`` adjacent sub-buckets of width
    ``slide_s`` — so one deterministic ring of sub-buckets backs both
    views.  The ring holds at most ``capacity`` sub-buckets; older
    ones are evicted lowest-index-first and counted in
    ``evicted_buckets`` (no silent truncation).
    """

    def __init__(self, name: str, width_s: float,
                 slide_s: Optional[float] = None,
                 track_quantiles: bool = False,
                 bounds: Sequence[float] = LATENCY_BUCKETS,
                 capacity: int = 4096) -> None:
        if width_s <= 0:
            raise ValueError("window width must be positive")
        slide_s = width_s if slide_s is None else slide_s
        if slide_s <= 0 or slide_s > width_s:
            raise ValueError("slide must be in (0, width]")
        steps = width_s / slide_s
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("slide must divide the window width")
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.name = name
        self.width_s = float(width_s)
        self.slide_s = float(slide_s)
        self.steps = int(round(steps))
        self.track_quantiles = track_quantiles
        self.bounds = tuple(bounds)
        self.capacity = capacity
        #: ``{bucket_index: Window}`` — the deterministic ring.
        self._buckets: Dict[int, Window] = {}
        self.evicted_buckets = 0
        self.observations = 0

    # -- writing -------------------------------------------------------------

    def _bucket_index(self, t: float) -> int:
        # Guard the float edge: an observation at exactly a boundary
        # belongs to the *starting* window.
        return int(math.floor((t + 1e-12) / self.slide_s))

    def _bucket(self, t: float) -> Window:
        index = self._bucket_index(t)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = Window(start_s=index * self.slide_s,
                            end_s=(index + 1) * self.slide_s,
                            sketch=(QuantileSketch(self.bounds)
                                    if self.track_quantiles else None))
            self._buckets[index] = bucket
            while len(self._buckets) > self.capacity:
                self._buckets.pop(min(self._buckets))
                self.evicted_buckets += 1
        return bucket

    def observe(self, t: float, value: float) -> None:
        """Record one observation at virtual time ``t``."""
        bucket = self._bucket(t)
        bucket.count += 1
        bucket.sum += value
        bucket.min = min(bucket.min, value)
        bucket.max = max(bucket.max, value)
        if bucket.sketch is not None:
            bucket.sketch.observe(value)
        self.observations += 1

    def inc(self, t: float, amount: float = 1.0) -> None:
        """Counter semantics: add ``amount`` to the window's sum (and
        one logical event to its count)."""
        if amount == 0:
            return
        bucket = self._bucket(t)
        bucket.count += 1
        bucket.sum += amount
        bucket.min = min(bucket.min, amount)
        bucket.max = max(bucket.max, amount)
        if bucket.sketch is not None:
            bucket.sketch.observe(amount)
        self.observations += 1

    # -- reading -------------------------------------------------------------

    def _merge_range(self, start_index: int) -> Window:
        merged = Window(start_s=start_index * self.slide_s,
                        end_s=start_index * self.slide_s + self.width_s,
                        sketch=(QuantileSketch(self.bounds)
                                if self.track_quantiles else None))
        for offset in range(self.steps):
            bucket = self._buckets.get(start_index + offset)
            if bucket is None:
                continue
            merged.count += bucket.count
            merged.sum += bucket.sum
            merged.min = min(merged.min, bucket.min)
            merged.max = max(merged.max, bucket.max)
            if merged.sketch is not None and bucket.sketch is not None:
                merged.sketch.merge(bucket.sketch)
        return merged

    def window(self, start_s: float) -> Window:
        """The single tumbling window starting at ``start_s`` (which
        must be width-aligned) — the SLO engine's per-window read."""
        index = self._bucket_index(start_s)
        if index % self.steps:
            raise ValueError(f"{start_s!r} is not width-aligned")
        return self._merge_range(index)

    def tumbling(self, until_s: Optional[float] = None) -> List[Window]:
        """Aligned non-overlapping windows covering every retained
        sub-bucket (empty gaps included — a silent window is data)."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        if until_s is not None:
            last = max(last, self._bucket_index(until_s) - 1)
        start = (first // self.steps) * self.steps
        out = []
        for index in range(start, last + 1, self.steps):
            out.append(self._merge_range(index))
        return out

    def sliding(self) -> List[Window]:
        """Overlapping windows advancing by ``slide_s`` (equal to
        :meth:`tumbling` when slide == width)."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        return [self._merge_range(index)
                for index in range(first, last + 1)]

    def latest(self) -> Optional[Window]:
        """The most recent (possibly still-filling) tumbling window."""
        windows = self.tumbling()
        return windows[-1] if windows else None


def series_collector(series_list: Iterable[WindowedSeries]):
    """A ``register_collector`` adapter: the latest tumbling window of
    each series as ``<name>_window_{count,sum}`` gauges, labelled with
    the window start — the registry feed the ISSUE names, so one
    scrape shows cumulative totals *and* the freshest window."""
    frozen = list(series_list)

    def collect():
        out = []
        for series in frozen:
            window = series.latest()
            if window is None:
                continue
            labels = {"series": series.name,
                      "window_start_s": f"{window.start_s:.6f}"}
            out.append(("repro_window_count", labels, float(window.count)))
            out.append(("repro_window_sum", labels, float(window.sum)))
        return out

    return collect


def register_series(registry: MetricsRegistry,
                    series_list: Iterable[WindowedSeries]) -> None:
    """Wire windowed series into a registry's live scrape."""
    registry.register_collector(series_collector(series_list))
