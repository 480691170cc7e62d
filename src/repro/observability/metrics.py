"""Metrics registry: labelled counters, live ledger read-throughs.

The stack grew one ad-hoc ledger per subsystem —
:class:`~repro.protocols.faults.FaultStats`,
:class:`~repro.core.supervisor.DegradationReport`,
:class:`~repro.protocols.gateway_runtime.RuntimeStats` and the gateway
runtime's WAP-gap plaintext log — none of which could be correlated in
one place.  This module is the unification:

* first-class :class:`Counter` metrics with label sets, owned by a
  :class:`MetricsRegistry`;
* **ledger adapters** (:func:`attach_ledger` and the ``export_*``
  helpers) that re-export the existing ledgers *live*: the ledger
  attributes stay the authoritative store the old code keeps mutating,
  and every scrape reads through them at collection time — so one
  :meth:`MetricsRegistry.render` sees gateway traffic, fleet recovery,
  cookie-gate accounting and battery state together without changing
  a single existing call site.  Collector families render as gauges.

Everything renders deterministically (families sorted by name, series
by label tuple), because telemetry exports must be byte-identical
across same-seed runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Buckets for request/recovery latencies: the quantile interpolation
#: below is only as sharp as the bucket grid, and the
#: gateway's virtual-time latencies cluster between 5 ms and a few
#: seconds of failover delay.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75,
                   1.0, 1.5, 2.5, 5.0, 10.0, float("inf"))


def interpolate_quantile(bounds: Sequence[float], counts: Sequence[int],
                         q: float) -> float:
    """The quantile of a fixed-bucket histogram, Prometheus-style.

    Walks cumulative bucket counts to the bucket containing rank
    ``q * total`` and linearly interpolates within it (lower edge of
    the first bucket is 0.0).  An answer landing in the ``+Inf``
    bucket clamps to the highest finite bound — the distribution's
    tail is unknowable beyond the grid.  Deterministic: pure integer
    walk plus one division, no sampling.
    """
    q = min(1.0, max(0.0, q))
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count > 0 and cumulative + count >= target:
            if bound == float("inf"):
                return lower
            fraction = (target - cumulative) / count
            return lower + (bound - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
        if bound != float("inf"):
            lower = bound
    return lower


class QuantileSketch:
    """A mergeable fixed-bucket quantile sketch.

    The :func:`interpolate_quantile` estimator over a free-standing
    value (one per window, or one raw list in :func:`quantile_of`)
    that supports :meth:`merge` — the property windowed aggregation
    needs.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        cleaned = sorted(float(b) for b in bounds)
        if not cleaned or cleaned[-1] != float("inf"):
            cleaned.append(float("inf"))
        self.bounds: Tuple[float, ...] = tuple(cleaned)
        self.counts: List[int] = [0] * len(self.bounds)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        self.total += 1
        self.sum += value

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch in (bucket grids must match)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge sketches with different buckets")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        return self

    def quantile(self, q: float) -> float:
        """Deterministic interpolated quantile (0.0 when empty)."""
        return interpolate_quantile(self.bounds, self.counts, q)

    def count_le(self, threshold: float) -> int:
        """Observations known to be <= ``threshold`` (bucket-rounded
        *down*: only buckets entirely below the threshold count, so
        SLO good-event counting errs on the strict side)."""
        good = 0
        for bound, count in zip(self.bounds, self.counts):
            if bound <= threshold:
                good += count
        return good


def quantile_of(values: Iterable[float], q: float) -> float:
    """One-shot bucketed quantile of a raw value list (the shared
    implementation behind the failover/survivability percentile
    fields — no more ad-hoc sorted-index math per ledger)."""
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch.quantile(q)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable, sorted form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing metric with optional labels."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Increment (the unlabelled series unless labels are given)."""
        self.add(_label_key(labels), amount)

    def add(self, key: LabelKey, amount: float) -> None:
        """Increment the series of a ready label key (as
        :func:`_label_key` builds it); no state changes on a negative
        ``amount``."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Read one series' current value."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """All series, deterministically ordered."""
        return [(self.name, key, self._values[key])
                for key in sorted(self._values)]


#: A collector returns live samples: (name, labels, value).  Collector
#: families render as gauges with no ``# HELP`` line.
Collector = Callable[[], Iterable[Tuple[str, Dict[str, object], float]]]


class MetricsRegistry:
    """Owns a namespace of metrics plus live read-through collectors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}
        self._collectors: List[Collector] = []

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get-or-create a counter."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name, help_text)
        return metric

    def register_collector(self, collector: Collector) -> None:
        """Add a live collector consulted at every scrape."""
        self._collectors.append(collector)

    # -- scraping ------------------------------------------------------------

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """Every series — stored metrics plus collector read-throughs —
        as ``(name, label_key, value)``, deterministically ordered."""
        out: List[Tuple[str, LabelKey, float]] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].samples())
        collected: List[Tuple[str, LabelKey, float]] = []
        for collector in self._collectors:
            for name, labels, value in collector():
                collected.append((name, _label_key(labels), float(value)))
        out.extend(sorted(collected))
        return out

    def value(self, name: str, **labels) -> float:
        """Scrape-time read of one series (collectors included)."""
        key = _label_key(labels)
        for sample_name, sample_key, sample_value in self.samples():
            if sample_name == name and sample_key == key:
                return sample_value
        raise KeyError(f"no series {name!r} with labels {labels!r}")

    def render(self) -> str:
        """Prometheus-style text exposition, byte-deterministic: stored
        families are counters, collector families gauges."""
        lines: List[str] = []
        families: Dict[str, List[Tuple[LabelKey, float]]] = {}
        for name, key, value in self.samples():
            families.setdefault(name, []).append((key, value))
        for family in sorted(families):
            metric = self._metrics.get(family)
            if metric is not None and metric.help_text:
                lines.append(f"# HELP {family} {metric.help_text}")
            kind = "counter" if metric is not None else "gauge"
            lines.append(f"# TYPE {family} {kind}")
            for key, value in sorted(families[family]):
                rendered = repr(value) if value != int(value) else str(int(value))
                lines.append(f"{family}{_format_labels(key)} {rendered}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ledger adapters: the old counter idioms, unified behind one scrape
# ---------------------------------------------------------------------------

def _numeric_fields(obj) -> List[str]:
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    else:
        names = [n for n in vars(obj) if not n.startswith("_")]
    out = []
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out.append(name)
    return out


def attach_ledger(registry: MetricsRegistry, prefix: str, obj,
                  fields: Optional[Sequence[str]] = None,
                  labels: Optional[Dict[str, object]] = None) -> None:
    """Re-export a ledger object's numeric attributes as live gauges.

    ``obj``'s attributes remain the authoritative store (existing code
    keeps doing ``ledger.field += 1``); every scrape reads the current
    values through ``getattr``.  ``fields`` defaults to the object's
    numeric dataclass fields / instance attributes and may name
    properties too (e.g. ``FaultStats.total_drops``).
    """
    chosen = list(fields) if fields is not None else _numeric_fields(obj)
    fixed = dict(labels or {})

    def collect():
        out = []
        for field in chosen:
            value = getattr(obj, field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out.append((f"{prefix}_{field}", fixed, float(value)))
        return out

    registry.register_collector(collect)


def export_dos_responder(registry: MetricsRegistry, responder,
                         role: str = "gateway") -> None:
    """Adapter for :class:`~repro.protocols.dos.CookieProtectedResponder`:
    the cookie-gate accounting, including the bounded pending table
    (``pending_cookies`` is a property — read through live) and its
    flood-pressure evictions."""
    attach_ledger(registry, "repro_dos_responder", responder,
                  fields=["pending_cookies", "cookies_issued",
                          "cookies_verified", "cookies_rejected",
                          "cookies_grace_accepted", "cookies_unmatched",
                          "evicted", "secret_rotations",
                          "handshakes_started", "work_spent_mi"],
                  labels={"role": role})


def export_adversary_population(registry: MetricsRegistry,
                                population) -> None:
    """Adapter for :class:`~repro.adversary.population.AdversaryPopulation`:
    one labelled sample series per adversary, read live from each
    adversary's ``snapshot()`` ledger."""

    def collect():
        out = []
        for adversary in population.adversaries:
            labels = {"adversary": adversary.kind, "name": adversary.name}
            for key, value in adversary.snapshot().items():
                if isinstance(value, bool):
                    value = int(value)
                if not isinstance(value, (int, float)):
                    continue
                out.append((f"repro_adversary_{key}", labels, float(value)))
        return out

    registry.register_collector(collect)


def export_battery(registry: MetricsRegistry, battery,
                   device: str = "appliance") -> None:
    """Live gauges for a :class:`~repro.hardware.battery.Battery`."""
    labels = {"device": device}

    def collect():
        return [
            ("repro_battery_capacity_j", labels, battery.capacity_j),
            ("repro_battery_remaining_j", labels, battery.remaining_j),
            ("repro_battery_drained_mj", labels, battery.drained_mj),
            ("repro_battery_fraction_remaining", labels,
             battery.fraction_remaining),
        ]

    registry.register_collector(collect)


def export_gateway(registry: MetricsRegistry, runtime) -> None:
    """The ``repro_gateway_*`` series of a
    :class:`~repro.protocols.gateway_runtime.GatewayRuntime`: its
    wired-leg, handler and degraded counts read through
    ``runtime.stats``, plus the WAP-gap plaintext exposure, which is a
    *security* metric."""
    def collect():
        stats = runtime.stats
        return [("repro_gateway_wired_leg_failures", {},
                 float(stats.wired_failures)),
                ("repro_gateway_handler_failures", {},
                 float(stats.handler_failures)),
                ("repro_gateway_degraded_responses", {},
                 float(stats.degraded)),
                ("repro_gateway_plaintext_records", {},
                 float(len(runtime.plaintext_log)))]

    registry.register_collector(collect)


def export_runtime(registry: MetricsRegistry, runtime) -> None:
    """One call wiring a whole
    :class:`~repro.protocols.gateway_runtime.GatewayRuntime` world:
    runtime stats, the ``repro_gateway_*`` series, per-origin breaker
    state, and every attached session battery."""
    attach_ledger(registry, "repro_gateway_runtime", runtime.stats,
                  fields=["submitted", "admitted", "served", "degraded",
                          "shed_rate_limited", "shed_queue_full",
                          "shed_deadline", "shed_malformed",
                          "malformed_discarded", "breaker_fast_fails",
                          "wired_failures", "handler_failures",
                          "battery_refusals", "energy_mj", "shed",
                          "answered"])
    export_gateway(registry, runtime)

    def collect_breakers():
        out = []
        for origin in sorted(runtime.breakers):
            breaker = runtime.breakers[origin]
            labels = {"origin": origin}
            out.append(("repro_gateway_breaker_fast_fails", labels,
                        float(breaker.fast_fails)))
            out.append(("repro_gateway_breaker_transitions", labels,
                        float(len(breaker.transitions))))
        return out

    registry.register_collector(collect_breakers)
    for session_id in sorted(runtime.sessions):
        battery = runtime.sessions[session_id].battery
        if battery is not None:
            export_battery(registry, battery, device=session_id)


def export_fleet(registry: MetricsRegistry, fleet) -> None:
    """Adapter for a :class:`~repro.fleet.runtime.ShardedFleet`: the
    supervisor's crash/recovery ledger plus live per-shard collectors
    (checkpoints written, journal health, liveness, session counts)
    and the recovery-latency distribution."""
    attach_ledger(registry, "repro_fleet", fleet.stats,
                  fields=["crashes", "detections", "restarts",
                          "heartbeat_misses", "sessions_migrated",
                          "migrations_warm", "migrations_cold_resume",
                          "migrations_cold_full", "checkpoints_restored",
                          "shed_recovering", "requests_while_down",
                          "black_holed_frames", "flushed_replies",
                          "migration_deferrals", "battery_refusals",
                          "recovery_energy_mj", "journal_bytes_torn"])

    def collect_shards():
        out = []
        for shard in fleet.shards:
            labels = {"shard": shard.name}
            journal = shard.journal
            out.append(("repro_fleet_shard_alive", labels,
                        1.0 if shard.alive else 0.0))
            out.append(("repro_fleet_shard_sessions", labels,
                        float(len(shard.runtime.sessions))))
            out.append(("repro_fleet_shard_crashes", labels,
                        float(shard.crash_count)))
            out.append(("repro_fleet_checkpoints_written", labels,
                        float(journal.checkpoints_written)))
            out.append(("repro_fleet_journal_bytes", labels,
                        float(len(journal))))
            out.append(("repro_fleet_journal_evictions", labels,
                        float(journal.evictions)))
            out.append(("repro_fleet_journal_torn_records", labels,
                        float(journal.torn_records)))
            # The shard's answer ledger (a restart keeps it).
            stats = shard.runtime.stats
            for field_name in ("served", "degraded", "shed", "energy_mj"):
                out.append((f"repro_fleet_shard_{field_name}", labels,
                            float(getattr(stats, field_name))))
        return out

    def collect_recovery():
        stats = fleet.stats
        cache = fleet.ticket_cache
        return [
            ("repro_fleet_recovery_p50_s", {}, stats.recovery_p50_s()),
            ("repro_fleet_recovery_p95_s", {}, stats.recovery_p95_s()),
            ("repro_fleet_ticket_cache_entries", {}, float(len(cache))),
            ("repro_fleet_ticket_cache_evictions", {},
             float(cache.evictions)),
            ("repro_fleet_ticket_cache_expired", {}, float(cache.expired)),
        ]

    registry.register_collector(collect_shards)
    registry.register_collector(collect_recovery)
