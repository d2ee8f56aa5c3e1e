"""Machine-readable snapshots of a mediator's observable state.

``repro stats`` and the shell's ``:stats`` render human-oriented text;
the serving layer (``docs/SERVING.md``) and CI gates need the same
numbers as data.  Everything here reuses the structures the subsystems
already maintain — :class:`~repro.cim.manager.CimStats`, the per-tier
invalidation-reason dicts, the metrics registry snapshot — so the JSON
view can never drift from the text view: both read the same counters.

The top-level entry point is :func:`stats_snapshot`, consumed by

* ``python -m repro stats --json``,
* the serving protocol's ``stats`` op (``repro.serving.server``),
* the load client's cache-hit-rate reporting and the CI serving gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.core.mediator import Mediator


def cim_data(mediator: "Mediator") -> dict[str, Any]:
    """The CIM's call-level counters (exact/equality/partial hits...)."""
    stats = mediator.cim.stats
    return {
        "calls": stats.calls,
        "hits": stats.hits,
        "exact_hits": stats.exact_hits,
        "equality_hits": stats.equality_hits,
        "partial_hits": stats.partial_hits,
        "misses": stats.misses,
        "real_calls": stats.real_calls,
        "stale_served": stats.stale_served,
        "degraded_served": stats.degraded_served,
    }


def cache_tiers_data(mediator: "Mediator") -> dict[str, Any]:
    """Per-tier hit rate, occupancy, and invalidations by reason —
    the data behind the shell's ``:cache`` table (docs/CACHING.md)."""
    cim = mediator.cim.cache
    plans = mediator.plan_cache
    plan_lookups = plans.hits + plans.misses
    sub = mediator.subplan_cache
    return {
        "cim": {
            "hit_rate": cim.stats.hit_rate,
            "entries": len(cim),
            "bytes": cim.total_bytes,
            "invalidations": {
                "source": cim.source_invalidations,
                "ttl": cim.stats.expirations,
                "eviction": cim.stats.evictions,
            },
        },
        "plan": {
            "hit_rate": plans.hits / plan_lookups if plan_lookups else 0.0,
            "hits": plans.hits,
            "misses": plans.misses,
            "entries": len(plans),
            "invalidations": dict(plans.invalidations),
        },
        "subplan": {
            "enabled": mediator.use_subplan_cache,
            "hit_rate": sub.stats.hit_rate,
            "hits": sub.stats.hits,
            "misses": sub.stats.misses,
            "entries": sub.entry_count,
            "bytes": sub.total_bytes,
            "invalidations": dict(sub.stats.invalidations),
        },
    }


def planner_data(mediator: "Mediator") -> dict[str, Any]:
    """Search effort and plan-cache traffic counters."""
    metrics = mediator.metrics
    return {
        "searches": metrics.value("planner.searches"),
        "states_expanded": metrics.value("planner.states_expanded"),
        "states_pruned": metrics.value("planner.states_pruned"),
        "tail_completions": metrics.value("planner.tail_completions"),
        "estimator_memo_hits": metrics.value("planner.estimator_memo_hits"),
        "rules_filtered": metrics.value("planner.rules_filtered"),
        "literals_filtered": metrics.value("planner.literals_filtered"),
        "plan_cache_hits": metrics.value("planner.plan_cache_hits"),
        "plan_cache_misses": metrics.value("planner.plan_cache_misses"),
        "plan_cache_entries": len(mediator.plan_cache),
    }


def runtime_data(mediator: "Mediator") -> dict[str, Any]:
    """Parallel-engine dispatch/dedup/cancellation counters."""
    metrics = mediator.metrics
    return {
        "jobs": mediator.jobs,
        "runs": metrics.value("runtime.runs"),
        "dispatched": metrics.value("runtime.dispatched"),
        "singleflight_deduped": metrics.value("runtime.singleflight.deduped"),
        "cancelled": metrics.value("runtime.cancelled"),
        "queue_high_watermark": metrics.value("runtime.queue.high_watermark"),
    }


def storage_kind(mediator: "Mediator") -> str:
    """The backend kind, or ``"none"`` for a mediator without one."""
    return mediator.storage.kind if mediator.storage is not None else "none"


def storage_data(mediator: "Mediator") -> dict[str, Any]:
    """Backend kind and traffic, including what warm start reloaded."""
    metrics = mediator.metrics
    return {
        "kind": storage_kind(mediator),
        "closed": mediator.closed,
        "writes": metrics.value("storage.writes"),
        "reads": metrics.value("storage.reads"),
        "bytes_written": metrics.value("storage.bytes_written"),
        "evictions": metrics.value("storage.evictions"),
        "warm_start_entries_loaded": metrics.value(
            "storage.warm_start.entries_loaded"
        ),
    }


def serving_data(
    mediator: "Mediator", admission: Optional[Any] = None
) -> dict[str, Any]:
    """Admission/queue/warmer/lifecycle counters from a mediator server.

    ``admission`` (an ``AdmissionController``, when the caller has a live
    server) adds the live EWMA service time, the adaptive retry hint, and
    the shed flag — state that lives on the controller, not the registry.
    """
    metrics = mediator.metrics
    cancel_latency = next(
        iter(metrics.histograms("serving.cancel.latency_ms")), None
    )
    data: dict[str, Any] = {
        "requests": metrics.value("serving.requests"),
        "admitted": metrics.value("serving.admitted"),
        "completed": metrics.value("serving.completed"),
        "errors": metrics.value("serving.errors"),
        "rejected": {
            "queue_full": metrics.value("serving.rejected.queue_full"),
            "tenant_quota": metrics.value("serving.rejected.tenant_quota"),
            "draining": metrics.value("serving.rejected.draining"),
            "shed": metrics.value("serving.rejected.shed"),
            "deadline_exceeded": metrics.value(
                "serving.rejected.deadline_exceeded"
            ),
        },
        "lifecycle": {
            "completed": metrics.value("serving.completed"),
            "cancelled": metrics.value("serving.cancelled"),
            "deadline_exceeded": metrics.value("serving.deadline.exceeded"),
            "queue_expired": metrics.value("serving.deadline.queue_expired"),
            "partial_returned": metrics.value("serving.partial.returned"),
            "partial_denied": metrics.value("serving.partial.denied"),
            "cancel": {
                "requests": metrics.value("serving.cancel.requests"),
                "queued": metrics.value("serving.cancel.queued"),
                "inflight": metrics.value("serving.cancel.inflight"),
                "disconnect": metrics.value("serving.cancel.disconnect"),
                "watchdog": metrics.value("serving.cancel.watchdog"),
                "latency_ms_p50": (
                    cancel_latency.percentile(50) if cancel_latency else None
                ),
                "latency_ms_p99": (
                    cancel_latency.percentile(99) if cancel_latency else None
                ),
            },
        },
        "queue_high_watermark": metrics.value("serving.queue.high_watermark"),
        "warmer": {
            "observed": metrics.value("serving.warmer.observed"),
            "enqueued": metrics.value("serving.warmer.enqueued"),
            "warmed": metrics.value("serving.warmer.warmed"),
            "dropped": metrics.value("serving.warmer.dropped"),
            "errors": metrics.value("serving.warmer.errors"),
        },
        "tenants": {},
    }
    tenants: dict[str, dict[str, float]] = {}
    for counter in metrics.counters("serving.tenant."):
        remainder = counter.name[len("serving.tenant."):]
        tenant, _, field = remainder.rpartition(".")
        if tenant:
            tenants.setdefault(tenant, {})[field] = counter.value
    data["tenants"] = tenants
    if admission is not None:
        data["ewma_service_ms"] = admission.ewma_service_ms
        data["retry_after_ms"] = admission.retry_after_hint()
        data["shedding"] = admission.shedding
    return data


def stats_snapshot(
    mediator: "Mediator",
    include_metrics: bool = True,
    admission: Optional[Any] = None,
) -> dict[str, Any]:
    """One JSON-safe dict with every summary the text report prints.

    ``include_metrics=False`` omits the flat registry snapshot (the
    serving ``stats`` op uses this to keep responses small)."""
    snapshot: dict[str, Any] = {
        "clock_ms": mediator.clock.now_ms,
        "dcsm": {
            "observations": mediator.dcsm.observation_count(),
            "version": mediator.dcsm.version,
        },
        "cim": cim_data(mediator),
        "cache": cache_tiers_data(mediator),
        "planner": planner_data(mediator),
        "runtime": runtime_data(mediator),
        "storage": storage_data(mediator),
        "serving": serving_data(mediator, admission=admission),
    }
    if include_metrics:
        snapshot["metrics"] = mediator.metrics.snapshot()
    return snapshot
