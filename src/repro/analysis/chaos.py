"""Chaos sweep over the multi-session gateway runtime.

The gateway analogue of the lossy-link drop sweep: drive the
:class:`~repro.protocols.gateway_runtime.GatewayRuntime` across a grid
of **offered load** (request interarrival time per handset) × **origin
fault rate** (seeded i.i.d. wired-leg failures) and report, per point,
how the overload/fault machinery split the traffic — served, degraded,
shed — plus p95 virtual-time latency and handset radio energy per
served request.  Every point is a pure function of its seed.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..protocols.gateway_runtime import (
    build_gateway_runtime_world,
    drain_replies,
    submit_rounds,
)
from ..protocols.wap import ORIGIN_NAME
from .sweep import SweepResult, sweep


def chaos_point(sessions: int = 4, requests_per_session: int = 8,
                interarrival_s: float = 0.2, fault_rate: float = 0.0,
                seed: int = 0) -> Dict[str, float]:
    """Run one grid point and return its ledger.

    ``interarrival_s`` is the per-handset request period; the aggregate
    offered load is ``sessions / interarrival_s`` requests per virtual
    second, which the runtime's admission rate then accepts or sheds.
    """
    runtime, handsets, _ = build_gateway_runtime_world(
        sessions=sessions, seed=seed)
    runtime.set_fault_rate(ORIGIN_NAME, fault_rate, seed=seed)
    submit_rounds(runtime, handsets, ORIGIN_NAME, requests_per_session,
                  interarrival_s)
    stats = runtime.run()
    counts = drain_replies(runtime, handsets).counts
    return {
        "sessions": sessions,
        "offered_per_s": round(sessions / interarrival_s, 3),
        "fault_rate": fault_rate,
        "submitted": stats.submitted,
        "served": counts["served"],
        "degraded": counts["degraded"],
        "shed": counts["shed"],
        "breaker_fast_fails": stats.breaker_fast_fails,
        "wired_failures": stats.wired_failures,
        "p95_latency_s": round(stats.p95_latency_s(), 6),
        "energy_per_served_mj": round(stats.energy_per_served_mj(), 6),
    }


def chaos_sweep(interarrivals: Sequence[float] = (0.4, 0.1, 0.025),
                fault_rates: Sequence[float] = (0.0, 0.2, 0.5),
                sessions: int = 4, requests_per_session: int = 8,
                seed: int = 0) -> SweepResult:
    """The full offered-load × fault-rate grid as a
    :class:`~repro.analysis.sweep.SweepResult`."""
    return sweep(
        lambda interarrival_s, fault_rate: chaos_point(
            sessions=sessions,
            requests_per_session=requests_per_session,
            interarrival_s=interarrival_s,
            fault_rate=fault_rate,
            seed=seed),
        interarrival_s=list(interarrivals),
        fault_rate=list(fault_rates),
    )
