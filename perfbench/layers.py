"""Per-layer metrics: counter snapshots taken around the timed phase plus
span self times from the tracer, normalised per query.

Every ``*_ms`` layer figure is the layer's self time summed over the
timed phase and divided by the queries completed in it, so the layer
figures of one workload add up to (roughly) its mean latency.
"""

from __future__ import annotations

from typing import Any

#: per-layer metric name → span names whose self time it sums
SELF_TIME_LAYERS = {
    "mediator.self_ms": ("mediator.query",),
    "parser.parse_ms": ("parser.parse_query",),
    "plancache.probe_ms": ("plancache.canonicalize", "plancache.get"),
    "rewriter.search_ms": ("rewriter.search",),
    "dcsm.estimate_ms": ("dcsm.estimate",),
    "dcsm.record_ms": ("dcsm.record",),
    "cim.execute_ms": ("cim.execute",),
    "subplan.get_ms": ("subplan.match",),
    "executor.self_ms": ("executor.run", "executor.parallel_run"),
    "net.dial_ms": ("net.dial",),
    "storage.write_ms": ("storage.put", "storage.delete"),
}

_COUNTERS = (
    "net.calls",
    "executor.dispatches",
    "planner.plan_cache_hits",
    "planner.plan_cache_misses",
    "planner.searches",
    "planner.states_expanded",
    "storage.bytes_written",
)
_CIM_FIELDS = ("calls", "exact_hits", "equality_hits", "partial_hits", "real_calls")


def snapshot(mediator: Any) -> dict[str, float]:
    """Cumulative counters of every layer, read without side effects."""
    metrics = mediator.metrics
    snap = {name: metrics.value(name) for name in _COUNTERS}
    dial_ms = metrics.histogram("net.call_ms")
    snap["net.call_ms.count"] = float(dial_ms.count)
    snap["net.call_ms.total"] = float(dial_ms.total)
    snap["dcsm.version"] = float(mediator.dcsm.version)
    for field in _CIM_FIELDS:
        snap[f"cim.{field}"] = float(getattr(mediator.cim.stats, field))
    subplan = mediator.subplan_cache.stats
    snap["subplan.lookups"] = float(subplan.lookups)
    snap["subplan.hits"] = float(subplan.hits)
    return snap


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    mediator: Any,
    before: dict[str, float],
    after: dict[str, float],
    self_times: dict[str, dict[str, float]],
    queries: int,
    notifies: int = 0,
    dropped: int = 0,
) -> dict[str, float]:
    """Per-layer figures for one timed phase of ``queries`` queries.

    Reads the DCSM's cell count at the end, which rebuilds stale summary
    tables — call it only after the timed phase."""
    delta = {name: after[name] - before[name] for name in after}
    per_query = max(queries, 1)
    out: dict[str, float] = {}
    for name, spans in SELF_TIME_LAYERS.items():
        seconds = sum(self_times.get(span, {}).get("self_s", 0.0) for span in spans)
        out[name] = 1000.0 * seconds / per_query
    storage_ops = sum(
        self_times.get(span, {}).get("count", 0) for span in ("storage.put", "storage.delete")
    )
    searches = delta["planner.searches"]
    probes = delta["planner.plan_cache_hits"] + delta["planner.plan_cache_misses"]
    dials = delta["net.calls"]
    dispatches = delta["executor.dispatches"]
    out.update(
        {
            "plancache.hit_rate": _share(delta["planner.plan_cache_hits"], probes),
            "rewriter.searches_per_query": searches / per_query,
            "rewriter.states_expanded_per_search": _share(delta["planner.states_expanded"], searches),
            "dcsm.rebuilds_per_query": delta["dcsm.version"] / per_query,
            "dcsm.observations_held": float(mediator.dcsm.observation_count()),
            "dcsm.cells": float(mediator.dcsm.size_cells()),
            "cim.hit_rate": _share(
                delta["cim.exact_hits"] + delta["cim.equality_hits"] + delta["cim.partial_hits"],
                delta["cim.calls"],
            ),
            "cim.exact_share": _share(delta["cim.exact_hits"], delta["cim.calls"]),
            "cim.invariant_share": _share(
                delta["cim.equality_hits"] + delta["cim.partial_hits"], delta["cim.calls"]
            ),
            "cim.real_call_share": _share(delta["cim.real_calls"], delta["cim.calls"]),
            "cim.dropped_per_notify": _share(dropped, notifies),
            "subplan.hit_rate": _share(delta["subplan.hits"], delta["subplan.lookups"]),
            "executor.dispatches_per_query": dispatches / per_query,
            "executor.dial_ratio": _share(dials, dispatches),
            "net.sim_ms_per_dial": _share(delta["net.call_ms.total"], delta["net.call_ms.count"]),
            "storage.writes_per_query": storage_ops / per_query,
            "storage.bytes_per_query": delta["storage.bytes_written"] / per_query,
            "metrics.samples_retained": float(
                sum(histogram.count for histogram in mediator.metrics.histograms())
            ),
        }
    )
    return out
