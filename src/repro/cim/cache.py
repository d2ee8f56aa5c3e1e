"""The query-result cache: ground domain calls mapped to answer sets.

Entries are indexed two ways: by the full ground call (exact lookup) and
by ``domain:function`` (the invariant matcher scans only the entries that
could possibly match a candidate call).  The cache supports bounded
capacity in entries and/or bytes with LRU, LFU, or cost-aware eviction
(``"cost"``: score = DCSM-estimated recompute cost x hit frequency per
byte, see :class:`repro.storage.evictor.CostFrequencyEvictor`), and
optional TTL expiry against the simulated clock.

The cache holds no storage backend: :mod:`repro.cim.persistence`
snapshots its entries into one at flush, and :meth:`restore` re-inserts
a previous session's entries for warm restart.

All public operations take an internal re-entrant lock: the parallel
runtime's workers hit one shared cache concurrently, and the two indexes
plus the byte accounting must move together.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.core.model import GroundCall
from repro.core.terms import Value, value_bytes
from repro.errors import CacheError

if TYPE_CHECKING:
    from repro.cim.persistence import CacheRecord
    from repro.metrics import MetricsRegistry
    from repro.storage.evictor import CostFrequencyEvictor

POLICY_LRU = "lru"
POLICY_LFU = "lfu"
POLICY_COST = "cost"


@dataclass
class CacheEntry:
    """One cached call with its answers and bookkeeping."""

    call: GroundCall
    answers: tuple[Value, ...]
    complete: bool
    stored_at_ms: float
    answer_bytes: int
    hits: int = 0
    last_used_ms: float = field(default=0.0)

    @property
    def cardinality(self) -> int:
        return len(self.answers)


@dataclass
class CacheStats:
    """Observability counters (reset with the cache)."""

    lookups: int = 0
    exact_hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.exact_hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Bounded (answer-set) cache keyed by ground domain calls."""

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        policy: str = POLICY_LRU,
        ttl_ms: Optional[float] = None,
        evictor: "Optional[CostFrequencyEvictor]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
    ):
        if policy not in (POLICY_LRU, POLICY_LFU, POLICY_COST):
            raise CacheError(f"unknown eviction policy {policy!r}")
        if max_entries is not None and max_entries < 1:
            raise CacheError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError("max_bytes must be at least 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.policy = policy
        self.ttl_ms = ttl_ms
        if policy == POLICY_COST and evictor is None:
            from repro.storage.evictor import CostFrequencyEvictor

            evictor = CostFrequencyEvictor()
        self.evictor = evictor
        self.metrics = metrics
        self.stats = CacheStats()
        # entries dropped by source-change notifications, itemized for the
        # per-tier cache summary (TTL drops are stats.expirations and
        # capacity drops stats.evictions; plain attribute, not a
        # CacheStats field, so existing stats consumers are unaffected)
        self.source_invalidations = 0
        self._entries: "OrderedDict[GroundCall, CacheEntry]" = OrderedDict()
        # secondary index keyed by (domain, function) tuples: lookup and
        # invalidation touch only the bucket of the one source function
        self._by_function: dict[tuple[str, str], dict[GroundCall, CacheEntry]] = {}
        self._total_bytes = 0
        # TTL-expired entries parked for degraded serving (peek_stale): an
        # expired answer set is still better than none when the source is
        # unreachable.  Not counted in len()/total_bytes; purged on
        # invalidation (the data is then known wrong, not merely old).
        self._stale: "OrderedDict[GroundCall, CacheEntry]" = OrderedDict()
        # re-entrant so internal helpers may call public methods
        self._lock = threading.RLock()

    # -- core operations ---------------------------------------------------

    def get(self, call: GroundCall, now_ms: float = 0.0) -> Optional[CacheEntry]:
        """Exact lookup; honours TTL; updates recency/frequency."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(call)
            if entry is None:
                self.stats.misses += 1
                return None
            if self._expired(entry, now_ms):
                self._park_stale(call, entry)
                self._remove(call)
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            entry.hits += 1
            entry.last_used_ms = now_ms
            self._entries.move_to_end(call)
            self.stats.exact_hits += 1
            return entry

    def peek(self, call: GroundCall, now_ms: float = 0.0) -> Optional[CacheEntry]:
        """Lookup without recency/stats side effects (used by the invariant
        matcher and by stale-serving, which has its own bookkeeping)."""
        with self._lock:
            entry = self._entries.get(call)
            if entry is None or self._expired(entry, now_ms):
                return None
            return entry

    def peek_stale(self, call: GroundCall) -> Optional[CacheEntry]:
        """Lookup ignoring TTL: degraded mode prefers an expired answer
        set over no answers at all when the source is unreachable.
        Checks live entries first, then the parked TTL-expired ones."""
        with self._lock:
            entry = self._entries.get(call)
            if entry is not None:
                return entry
            return self._stale.get(call)

    def put(
        self,
        call: GroundCall,
        answers: tuple[Value, ...],
        now_ms: float = 0.0,
        complete: bool = True,
    ) -> CacheEntry:
        """Insert or replace an entry, then evict down to capacity.

        A complete result always replaces an incomplete one; an incomplete
        result never downgrades a cached complete one.
        """
        with self._lock:
            self._stale.pop(call, None)  # fresh data supersedes the parked copy
            existing = self._entries.get(call)
            if existing is not None:
                if existing.complete and not complete:
                    return existing
                self._remove(call)
            answer_bytes = sum(value_bytes(a) for a in answers)
            entry = CacheEntry(
                call=call,
                answers=tuple(answers),
                complete=complete,
                stored_at_ms=now_ms,
                answer_bytes=answer_bytes,
                last_used_ms=now_ms,
            )
            self._entries[call] = entry
            self._by_function.setdefault((call.domain, call.function), {})[call] = entry
            self._total_bytes += answer_bytes
            self.stats.insertions += 1
            self._evict(now_ms, protect=call)
            return entry

    def invalidate(self, call: GroundCall) -> bool:
        """Drop one entry; True if it existed."""
        with self._lock:
            self._stale.pop(call, None)
            if call in self._entries:
                self._remove(call)
                return True
            return False

    def invalidate_function(self, domain: str, function: str) -> int:
        """Drop every entry of ``domain:function`` (e.g. after a source
        update notification); returns the number removed."""
        with self._lock:
            key = (domain, function)
            calls = list(self._by_function.get(key, ()))
            for call in calls:
                self._remove(call)
            for call in [
                c for c in self._stale if (c.domain, c.function) == key
            ]:
                del self._stale[call]
            self.source_invalidations += len(calls)
            return len(calls)

    def invalidate_domain(self, domain: str) -> int:
        """Drop every entry of every function of ``domain``; returns the
        number removed."""
        with self._lock:
            removed = 0
            for key in [k for k in self._by_function if k[0] == domain]:
                for call in list(self._by_function.get(key, ())):
                    self._remove(call)
                    removed += 1
            for call in [c for c in self._stale if c.domain == domain]:
                del self._stale[call]
            self.source_invalidations += removed
            return removed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_function.clear()
            self._stale.clear()
            self._total_bytes = 0
            self.stats = CacheStats()

    # -- scanning (for invariants) ---------------------------------------------

    def entries_for(self, domain: str, function: str, now_ms: float = 0.0) -> Iterator[CacheEntry]:
        """All live entries of one source function (snapshot at call time)."""
        with self._lock:
            bucket = self._by_function.get((domain, function), {})
            live = [
                entry
                for entry in bucket.values()
                if not self._expired(entry, now_ms)
            ]
        yield from live

    def __iter__(self) -> Iterator[CacheEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, call: GroundCall) -> bool:
        return call in self._entries

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    # -- warm restart ----------------------------------------------------------------

    def restore(self, records: "Iterable[CacheRecord]", now_ms: float = 0.0) -> int:
        """Re-insert a previous session's entries; returns the count.

        Records go through the normal ``put`` path, so this cache's
        capacity limits and eviction policy apply.  Stored timestamps
        are clamped to ``now_ms``: the restarted clock starts over, and
        a ``stored_at_ms`` in the new clock's future would never satisfy
        TTL expiry.
        """
        count = 0
        with self._lock:
            for record in records:
                entry = self.put(
                    record.call,
                    record.answers,
                    now_ms=min(record.stored_at_ms, now_ms),
                    complete=record.complete,
                )
                entry.hits = record.hits
                count += 1
        return count

    # -- internals -----------------------------------------------------------------

    def _expired(self, entry: CacheEntry, now_ms: float) -> bool:
        return self.ttl_ms is not None and now_ms - entry.stored_at_ms >= self.ttl_ms

    def _park_stale(self, call: GroundCall, entry: CacheEntry) -> None:
        self._stale[call] = entry
        self._stale.move_to_end(call)
        limit = self.max_entries if self.max_entries is not None else 256
        while len(self._stale) > limit:
            self._stale.popitem(last=False)

    def _remove(self, call: GroundCall) -> None:
        entry = self._entries.pop(call)
        self._total_bytes -= entry.answer_bytes
        key = (call.domain, call.function)
        bucket = self._by_function.get(key)
        if bucket is not None:
            bucket.pop(call, None)
            if not bucket:
                del self._by_function[key]

    def _evict(self, now_ms: float, protect: Optional[GroundCall] = None) -> None:
        def over_capacity() -> bool:
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                return True
            if self.max_bytes is not None and self._total_bytes > self.max_bytes:
                return True
            return False

        while over_capacity() and len(self._entries) > 1:
            victim = self._pick_victim(protect)
            if victim is None:
                break
            self._remove(victim)
            self.stats.evictions += 1
            if self.metrics is not None:
                self.metrics.inc("storage.evictions")

    def _pick_victim(self, protect: Optional[GroundCall]) -> Optional[GroundCall]:
        if self.policy == POLICY_LRU:
            for call in self._entries:  # OrderedDict: oldest first
                if call != protect:
                    return call
            return None
        if self.policy == POLICY_COST:
            # cost-aware: discard the entry with the lowest benefit
            # density (recompute cost x hit frequency per byte); ties
            # break by age via iteration order
            assert self.evictor is not None
            victim: Optional[GroundCall] = None
            lowest: Optional[float] = None
            for call, entry in self._entries.items():
                if call == protect:
                    continue
                score = self.evictor.score(entry)
                if lowest is None or score < lowest:
                    lowest = score
                    victim = call
            return victim
        # LFU: fewest hits, ties broken by age (iteration order)
        victim = None
        fewest = None
        for call, entry in self._entries.items():
            if call == protect:
                continue
            if fewest is None or entry.hits < fewest:
                fewest = entry.hits
                victim = call
        return victim
