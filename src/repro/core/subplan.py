"""Sub-plan result caching: the middle tier between the CIM and the plan cache.

The CIM caches *ground calls* (paper §4) and the plan cache caches *whole
plan templates* (PR 3), so two queries that share most of a join — or one
query re-run with a different tail — redo the shared prefix work from
scratch.  Following Roy et al. (*Don't Trash your Intermediate Results,
Cache 'em*), this module materializes the intermediate answer set produced
by each executed plan **prefix** and replays it for any later plan whose
prefix is semantically identical:

* A *cut* is a prefix boundary sitting immediately before a call step that
  has at least one call step before it (see :func:`subplan_cuts`) — the
  materialized bindings at a cut are exactly the outer loop of the
  remaining nested-loop join.
* The key (:func:`canonicalize_prefix`) renames variables by first
  occurrence and abstracts constants to positional markers — the same
  ``Q#p`` discipline as ``core/plancache.py`` — so prefixes from different
  queries (different variable names, same shape and same constant values)
  collide.  Constant *values* stay in the key: unlike a plan template, a
  materialized result depends on them.
* Entries remember the set of sources their prefix touched and are
  invalidated along every path the other tiers already honour: program
  epoch bump, ``notify_source_changed``, DCSM version stamps, and TTL.
  Under a byte budget the evictor scores entries by recompute cost x hit
  frequency per byte (``storage/evictor.py``).

Persistence follows ``core/plancache.py``: at flush the tier snapshots
its entries into a storage backend under the ``subplan`` namespace as
versioned JSON (answer rows are plain mediator values, so no pickling is
needed), and they are adopted on warm restart only when the program
fingerprint matches.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.model import Comparison
from repro.core.plans import CallStep, CompareStep, PlanStep
from repro.core.terms import AttrPath, Constant, Term, Value, Variable, value_bytes
from repro.core.unify import Substitution, resolve
from repro.errors import StorageError
from repro.serialization import decode_value, encode_value

if TYPE_CHECKING:
    from repro.storage.backend import StorageBackend
    from repro.storage.evictor import CostFrequencyEvictor

#: Storage namespace for persisted subplan entries (PR 6 backends).
STORE_SUBPLAN = "subplan"

#: Bump when the persisted record layout changes.
SUBPLAN_RECORD_VERSION = 1

#: Invalidation reasons surfaced in the per-tier cache summary.
REASON_EPOCH = "epoch"
REASON_SOURCE = "source"
REASON_DCSM_VERSION = "dcsm_version"
REASON_TTL = "ttl"
REASON_EVICTION = "eviction"
INVALIDATION_REASONS = (
    REASON_EPOCH,
    REASON_SOURCE,
    REASON_DCSM_VERSION,
    REASON_TTL,
    REASON_EVICTION,
)

#: One materialized binding: the values of the prefix's variables in
#: ``CanonicalPrefix.var_order`` order.
SubplanRow = tuple[Value, ...]


def replay_cost_ms(row_count: int, base_ms: float) -> float:
    """Simulated cost of replaying a materialized prefix: one memo-grade
    hit charge plus a 10% surcharge per row, matching the executor's
    in-run memo replay pricing."""
    return base_ms + base_ms * 0.1 * row_count


@dataclass(frozen=True)
class CanonicalPrefix:
    """A plan prefix normalized for cross-query collision."""

    #: Full cache key: abstracted pattern + the abstracted constant values.
    key: str
    #: Constant-abstracted shape (shared by prefixes differing only in
    #: constant values — reported by the CLI, not used for lookup).
    pattern: str
    #: The constant values, in abstraction order.
    constants: tuple[Value, ...]
    #: This plan's variables in canonical (first-occurrence) order; a
    #: cached row assigns values to exactly these variables.
    var_order: tuple[Variable, ...]
    #: ``(domain, function)`` pairs the prefix dials.
    sources: frozenset[tuple[str, str]]


def subplan_cuts(steps: Sequence[PlanStep]) -> tuple[int, ...]:
    """Prefix boundaries worth caching: each index ``i`` sits immediately
    before a call step with at least one call step already placed, so
    ``steps[:i]`` did real source work and ``steps[i:]`` resumes with a
    dispatch.  (Cuts after trailing comparisons add nothing: comparisons
    are free relative to calls.)"""
    cuts: list[int] = []
    seen_call = False
    for index, step in enumerate(steps):
        if isinstance(step, CallStep):
            if seen_call:
                cuts.append(index)
            seen_call = True
    return tuple(cuts)


def canonicalize_prefix(
    steps: Sequence[PlanStep],
    initial_subst: Optional[Substitution] = None,
) -> CanonicalPrefix:
    """Normalize ``steps`` into a :class:`CanonicalPrefix`.

    Terms are first resolved against ``initial_subst`` (user bindings, or
    the planner's ``Q#p`` parameter substitution), then variables are
    renamed ``V0, V1, ...`` by first occurrence and constants abstracted
    to ``C0, C1, ...`` with their values collected — so two prefixes with
    the same shape and the same constant values share a key regardless of
    how their variables were spelled.
    """
    subst: Substitution = initial_subst or {}
    var_names: dict[Variable, str] = {}
    var_order: list[Variable] = []
    constants: list[Value] = []
    sources: set[tuple[str, str]] = set()

    def canon(term: Term) -> str:
        term = resolve(term, subst)
        if isinstance(term, Constant):
            constants.append(term.value)
            return f"C{len(constants) - 1}"
        if isinstance(term, Variable):
            name = var_names.get(term)
            if name is None:
                name = f"V{len(var_order)}"
                var_names[term] = name
                var_order.append(term)
            return name
        if isinstance(term, AttrPath):
            base = canon(term.base)
            path = ".".join(str(component) for component in term.path)
            return f"{base}.{path}"
        raise StorageError(f"cannot canonicalize term {term!r}")

    parts: list[str] = []
    for step in steps:
        if isinstance(step, CallStep):
            call = step.atom.call
            sources.add((call.domain, call.function))
            args = ",".join(canon(arg) for arg in call.args)
            output = canon(step.atom.output)
            via = "@cim" if step.via_cim else ""
            parts.append(f"in({output},{call.domain}:{call.function}({args})){via}")
        elif isinstance(step, CompareStep):
            comparison: Comparison = step.comparison
            parts.append(f"{comparison.op}({canon(comparison.left)},{canon(comparison.right)})")
        else:  # pragma: no cover - plan steps are calls or comparisons
            raise StorageError(f"cannot canonicalize plan step {step!r}")
    pattern = ";".join(parts)
    values = json.dumps(
        [encode_value(value) for value in constants],
        sort_keys=True,
        separators=(",", ":"),
    )
    return CanonicalPrefix(
        key=f"{pattern}::{values}",
        pattern=pattern,
        constants=tuple(constants),
        var_order=tuple(var_order),
        sources=frozenset(sources),
    )


def project_row(
    var_order: Sequence[Variable], subst: Substitution
) -> Optional[SubplanRow]:
    """Extract the values of ``var_order`` from a solved substitution, or
    ``None`` when any variable is unground (such prefixes are not safely
    replayable and must not be cached)."""
    values: list[Value] = []
    for var in var_order:
        term = resolve(var, subst)
        if not isinstance(term, Constant):
            return None
        values.append(term.value)
    return tuple(values)


def row_subst(
    var_order: Sequence[Variable],
    row: SubplanRow,
    base: Substitution,
) -> dict[Variable, Term]:
    """Reconstruct the substitution a cached row stands for."""
    subst: dict[Variable, Term] = dict(base)
    for var, value in zip(var_order, row):
        subst[var] = Constant(value)
    return subst


@dataclass
class SubplanEntry:
    """One materialized prefix result."""

    key: str
    pattern: str
    rows: tuple[SubplanRow, ...]
    sources: frozenset[tuple[str, str]]
    epoch: int
    dcsm_version: int
    stored_at_ms: float
    #: Measured cost of the materialization (simulated ms) — the
    #: recompute-cost input to the benefit-density eviction score.
    cost_ms: float
    answer_bytes: int = 0
    hits: int = 0
    last_used_ms: float = 0.0


@dataclass
class SubplanStats:
    """Counters for the subplan tier (per-tier cache summary)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in INVALIDATION_REASONS}
    )

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SubplanResultCache:
    """Thread-safe store of materialized plan-prefix results.

    Validation is lazy and internal: ``match``/``peek`` compare each
    entry's epoch stamp against the cache's own epoch counter (bumped by
    the mediator on program change), its DCSM version stamp against
    ``dcsm_version_fn()``, and its age against the TTL, dropping stale
    entries with a per-reason counter.  ``invalidate_source`` drops
    eagerly via a by-source index.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: Optional[int] = None,
        ttl_ms: Optional[float] = None,
        evictor: Optional["CostFrequencyEvictor"] = None,
        metrics: Optional[Any] = None,
        dcsm_version_fn: Optional[Callable[[], int]] = None,
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_ms = ttl_ms
        self.evictor = evictor
        self.metrics = metrics
        self.epoch = 0
        self._dcsm_version_fn = dcsm_version_fn
        self._entries: "OrderedDict[str, SubplanEntry]" = OrderedDict()
        self._by_source: dict[tuple[str, str], set[str]] = {}
        self._bytes = 0
        self._lock = threading.RLock()
        self.stats = SubplanStats()

    # -- introspection ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def items(self) -> list[tuple[str, SubplanEntry]]:
        with self._lock:
            return list(self._entries.items())

    # -- lookup ----------------------------------------------------------------

    def match(
        self, keys: Sequence[str], now_ms: float
    ) -> Optional[tuple[str, SubplanEntry]]:
        """Return the first live entry among ``keys`` (callers order them
        longest-prefix-first), counting exactly one lookup and one hit or
        miss regardless of how many candidate cuts were probed."""
        with self._lock:
            self.stats.lookups += 1
            for key in keys:
                entry = self._validated(key, now_ms)
                if entry is not None:
                    entry.hits += 1
                    entry.last_used_ms = now_ms
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self._inc("subplan.hits")
                    return key, entry
            self.stats.misses += 1
            self._inc("subplan.misses")
            return None

    def peek(self, key: str, now_ms: float) -> Optional[SubplanEntry]:
        """Validation without hit/miss accounting — the planner's probe
        (pricing a candidate prefix must not skew executor hit rates)."""
        with self._lock:
            return self._validated(key, now_ms)

    def _validated(self, key: str, now_ms: float) -> Optional[SubplanEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.epoch != self.epoch:
            self._remove(key, REASON_EPOCH)
            return None
        if self._dcsm_version_fn is not None and entry.dcsm_version != self._dcsm_version_fn():
            self._remove(key, REASON_DCSM_VERSION)
            return None
        if self.ttl_ms is not None and now_ms - entry.stored_at_ms >= self.ttl_ms:
            self._remove(key, REASON_TTL)
            return None
        return entry

    # -- population ------------------------------------------------------------

    def put(
        self,
        canonical: CanonicalPrefix,
        rows: Sequence[SubplanRow],
        now_ms: float,
        cost_ms: float,
    ) -> Optional[SubplanEntry]:
        """Materialize a prefix result.  Returns the stored entry, or
        ``None`` when the entry alone would overflow the byte budget."""
        nbytes = sum(
            sum(value_bytes(value) for value in row) for row in rows
        ) + len(canonical.key)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return None
        # Stamp epoch/dcsm under the lock: a concurrent bump_epoch between
        # reading the stamps and inserting would tag rows computed under
        # the old program with the new epoch, letting them pass validation.
        with self._lock:
            entry = SubplanEntry(
                key=canonical.key,
                pattern=canonical.pattern,
                rows=tuple(rows),
                sources=canonical.sources,
                epoch=self.epoch,
                dcsm_version=self._dcsm_version_fn() if self._dcsm_version_fn else 0,
                stored_at_ms=now_ms,
                cost_ms=max(cost_ms, 0.0),
                answer_bytes=nbytes,
                last_used_ms=now_ms,
            )
            self._insert(entry)
        return entry

    def adopt(self, entry: SubplanEntry) -> None:
        """Insert a (re-stamped) persisted entry — warm restart."""
        with self._lock:
            self._insert(entry)

    def _insert(self, entry: SubplanEntry) -> None:
        if entry.key in self._entries:
            self._remove(entry.key, REASON_EVICTION, count=False)
        self._entries[entry.key] = entry
        self._bytes += entry.answer_bytes
        for source in entry.sources:
            self._by_source.setdefault(source, set()).add(entry.key)
        self.stats.insertions += 1
        self._inc("subplan.materialized_bytes", float(entry.answer_bytes))
        self._evict(protect=entry.key)

    def _evict(self, protect: str) -> None:
        while self._entries and (
            len(self._entries) > self.max_entries
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            victim = self._pick_victim(protect)
            if victim is None:
                break
            self._remove(victim, REASON_EVICTION)

    def _pick_victim(self, protect: str) -> Optional[str]:
        candidates = [key for key in self._entries if key != protect]
        if not candidates:
            return None
        if self.evictor is None:
            return candidates[0]  # insertion/recency order: LRU
        evictor = self.evictor

        def score(key: str) -> float:
            entry = self._entries[key]
            return evictor.score_parts(entry.cost_ms, entry.hits, entry.answer_bytes)

        return min(candidates, key=score)

    # -- invalidation ----------------------------------------------------------

    def bump_epoch(self) -> None:
        """Program changed: every materialized prefix is suspect.  Entries
        are dropped lazily at next validation (counted under ``epoch``)."""
        with self._lock:
            self.epoch += 1

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Eagerly drop every entry whose prefix dialed the changed
        source; ``function=None`` matches the whole domain."""
        with self._lock:
            doomed: set[str] = set()
            for (entry_domain, entry_function), keys in self._by_source.items():
                if entry_domain == domain and function in (None, entry_function):
                    doomed |= keys
            for key in doomed:
                self._remove(key, REASON_SOURCE)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._remove(key, REASON_EVICTION, count=False)

    def _remove(self, key: str, reason: str, count: bool = True) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.answer_bytes
        for source in entry.sources:
            keys = self._by_source.get(source)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_source[source]
        if count:
            self.stats.invalidations[reason] = self.stats.invalidations.get(reason, 0) + 1
            self._inc(f"subplan.invalidations.{reason}")

    def _inc(self, name: str, value: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)


# -- persistence (PR 6 storage backends, ``subplan`` namespace) -----------------


@dataclass(frozen=True)
class PersistedSubplan:
    """A subplan entry staged from a storage backend, awaiting adoption."""

    key: str
    fingerprint: str
    entry: SubplanEntry


def _encode_record(entry: SubplanEntry, fingerprint: str) -> bytes:
    payload = {
        "version": SUBPLAN_RECORD_VERSION,
        "fingerprint": fingerprint,
        "key": entry.key,
        "pattern": entry.pattern,
        "rows": [[encode_value(value) for value in row] for row in entry.rows],
        "sources": sorted([domain, function] for domain, function in entry.sources),
        "cost_ms": entry.cost_ms,
        "answer_bytes": entry.answer_bytes,
        "hits": entry.hits,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _decode_record(data: bytes) -> PersistedSubplan:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"undecodable subplan record: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != SUBPLAN_RECORD_VERSION:
        raise StorageError(
            f"unsupported subplan record version {payload.get('version') if isinstance(payload, dict) else payload!r}"
        )
    try:
        entry = SubplanEntry(
            key=payload["key"],
            pattern=payload["pattern"],
            rows=tuple(
                tuple(decode_value(value) for value in row) for row in payload["rows"]
            ),
            sources=frozenset(
                (domain, function) for domain, function in payload["sources"]
            ),
            epoch=0,
            dcsm_version=0,
            stored_at_ms=0.0,
            cost_ms=float(payload["cost_ms"]),
            answer_bytes=int(payload["answer_bytes"]),
            hits=int(payload["hits"]),
        )
        return PersistedSubplan(
            key=entry.key, fingerprint=payload["fingerprint"], entry=entry
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed subplan record: {exc}") from exc


def save_subplan_cache(
    cache: SubplanResultCache,
    backend: "StorageBackend",
    fingerprint: str,
    dcsm_version: int,
    store: str = STORE_SUBPLAN,
) -> int:
    """Persist every still-valid entry, replacing whatever the backend
    held (wholesale rewrite, like the plan cache: the in-memory tier is
    authoritative).  Entries whose stamps already went stale are skipped
    rather than resurrected."""
    for key in [key for key, _ in backend.scan_prefix(store, "")]:
        backend.delete(store, key)
    count = 0
    for _, entry in cache.items():
        if entry.epoch != cache.epoch or entry.dcsm_version != dcsm_version:
            continue
        backend.put(store, f"sp:{count:06d}", _encode_record(entry, fingerprint))
        count += 1
    return count


def load_subplan_records(
    backend: "StorageBackend", store: str = STORE_SUBPLAN
) -> list[PersistedSubplan]:
    """Stage persisted entries for adoption (they are NOT live until the
    program is loaded and its fingerprint matches).  Undecodable records
    are skipped, so one bad write cannot wedge every restart; the next
    save replaces the store without them."""
    records: list[PersistedSubplan] = []
    for __, data in backend.scan_prefix(store, ""):
        try:
            records.append(_decode_record(data))
        except StorageError:
            continue
    return records


def adopt_subplan_records(
    cache: SubplanResultCache,
    records: Sequence[PersistedSubplan],
    fingerprint: str,
    dcsm_version: int,
    now_ms: float,
) -> tuple[int, list[PersistedSubplan]]:
    """Adopt staged entries whose fingerprint matches the loaded program,
    re-stamped against the *current* epoch/DCSM version/clock.  Returns
    ``(adopted_count, non_matching_records)`` — the leftovers belong to a
    different program and must never be replayed."""
    remaining: list[PersistedSubplan] = []
    adopted = 0
    for record in records:
        if record.fingerprint != fingerprint:
            remaining.append(record)
            continue
        cache.adopt(
            replace(
                record.entry,
                epoch=cache.epoch,
                dcsm_version=dcsm_version,
                stored_at_ms=now_ms,
                last_used_ms=now_ms,
            )
        )
        adopted += 1
    return adopted, remaining
