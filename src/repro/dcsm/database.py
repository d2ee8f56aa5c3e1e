"""The cost-vector database (paper §6.1): raw per-call statistics.

For every executed domain call the database keeps ``(domain call, cost
vector, record.time)``.  It can answer any call-pattern estimate directly
by filtering + averaging — the "fully detailed statistics" the paper
warns is storage-hungry and aggregation-heavy, which is precisely what
summary tables exist to avoid.  Aggregation work is surfaced through
``AggregationTrace`` so the summarization benchmarks can show the
tradeoff.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.dcsm.patterns import CallPattern
from repro.dcsm.vectors import CostVector, Observation


@dataclass(frozen=True, slots=True)
class AggregationTrace:
    """How much work one raw-database estimate performed."""

    observations_scanned: int
    observations_matched: int


class CostVectorDatabase:
    """Append-only store of observations, bucketed per source function."""

    def __init__(self, max_observations_per_function: Optional[int] = None):
        self._buckets: dict[tuple[str, str], list[Observation]] = {}
        self.max_observations_per_function = max_observations_per_function
        self.total_recorded = 0
        # concurrent runtime workers record into shared buckets
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(self, observation: Observation) -> None:
        key = (observation.domain, observation.function)
        with self._lock:
            bucket = self._buckets.setdefault(key, [])
            bucket.append(observation)
            self.total_recorded += 1
            limit = self.max_observations_per_function
            if limit is not None and len(bucket) > limit:
                del bucket[: len(bucket) - limit]  # keep the most recent

    def observations(self, domain: str, function: str) -> tuple[Observation, ...]:
        with self._lock:
            return tuple(self._buckets.get((domain, function), ()))

    def functions(self) -> tuple[tuple[str, str], ...]:
        with self._lock:
            return tuple(sorted(self._buckets))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def size_cells(self) -> int:
        """Storage footprint in metric cells (3 per observation) — the
        unit the summarization experiments compare against tables."""
        return 3 * len(self)

    # -- direct aggregation ---------------------------------------------------

    def estimate(
        self,
        pattern: CallPattern,
        now_ms: Optional[float] = None,
        decay_tau_ms: Optional[float] = None,
    ) -> tuple[CostVector, AggregationTrace]:
        """Average the matching observations (the expensive path).

        With ``decay_tau_ms`` set, observations are weighted by
        ``exp(-(now - record_time)/tau)`` — the paper's §6.2.2 suggestion
        of "giving precedence to more recent statistics".
        """
        bucket = self._buckets.get((pattern.domain, pattern.function), ())
        matched = [obs for obs in bucket if pattern.matches(obs.call)]
        trace = AggregationTrace(len(bucket), len(matched))
        return _weighted_average(matched, now_ms, decay_tau_ms), trace


def _weighted_average(
    observations: Iterable[Observation],
    now_ms: Optional[float],
    decay_tau_ms: Optional[float],
) -> CostVector:
    sums = {"tf": 0.0, "ta": 0.0, "card": 0.0}
    weights = {"tf": 0.0, "ta": 0.0, "card": 0.0}
    for obs in observations:
        weight = 1.0
        if decay_tau_ms is not None and now_ms is not None:
            age = max(now_ms - obs.record_time_ms, 0.0)
            weight = math.exp(-age / decay_tau_ms)
        vec = obs.vector
        if vec.t_first_ms is not None:
            sums["tf"] += weight * vec.t_first_ms
            weights["tf"] += weight
        # incomplete runs under-report T_all and Card; leave them out
        if obs.complete and vec.t_all_ms is not None:
            sums["ta"] += weight * vec.t_all_ms
            weights["ta"] += weight
        if obs.complete and vec.cardinality is not None:
            sums["card"] += weight * vec.cardinality
            weights["card"] += weight
    return CostVector(
        t_first_ms=sums["tf"] / weights["tf"] if weights["tf"] else None,
        t_all_ms=sums["ta"] / weights["ta"] if weights["ta"] else None,
        cardinality=sums["card"] / weights["card"] if weights["card"] else None,
    )
