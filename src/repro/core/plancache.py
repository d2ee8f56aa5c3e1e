"""The mediator's query-plan cache.

The paper caches *answers* (CIM) and *statistics* (DCSM); this module
caches the optimizer's own output, keyed the same way the DCSM keys its
summary tables: by the query's **constant-abstracted pattern**.  Each
constant occurrence in the query is replaced by a fresh parameter
variable (``Q#p0``, ``Q#p1``, …, names that the parser can never
produce), the cost-guided search plans the abstracted query with the
parameters bound, and the winning plan — a *template* over the
parameters — is stored.  A later query with the same shape but different
constants instantiates the template by substitution and skips rewriting
and pricing entirely.

Abstraction is sound only when the plan does not depend on the constant
*values*.  Unfolding can specialise on a constant (a rule head
``p(a, X)`` unifies the parameter with ``a``), which the rewriter
reports through ``Expansion.unified_away``; such queries are
**value-dependent** — the abstract key stores a marker and the concrete
plan is cached under an exact key that includes the constants.

Invalidation is epoch-based:

* the mediator bumps its plan epoch on program reload, ``add_rule`` and
  ``add_invariant`` — every entry from an older epoch is dead;
* ``notify_source_changed`` evicts exactly the entries whose plans call
  the changed ``(domain, function)``;
* the DCSM bumps its ``version`` on every ``summarize()`` — an entry
  priced against older statistics is dropped lazily at lookup time
  (value-dependent markers carry no prices and survive).

Ground comparisons (both sides constants) are *not* abstracted: the
rewriter constant-folds them — ``5 > 3`` drops, ``3 > 5`` kills the
rewriting — and that decision is exactly a dependence on the values.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.model import (
    Comparison,
    DomainCall,
    InAtom,
    Literal,
    Predicate,
    Query,
)
from repro.core.plans import Plan
from repro.core.terms import Constant, Term, Variable
from repro.dcsm.vectors import CostVector
from repro.errors import ReproError, StorageError

if TYPE_CHECKING:
    from repro.storage.backend import StorageBackend

#: parameter variables contain ``#`` so they can never collide with a
#: parser-produced variable name (see :func:`repro.core.unify.fresh_variable`)
_PARAM_PREFIX = "Q#p"


@dataclass(frozen=True)
class CanonicalQuery:
    """A query split into shape and values.

    ``abstract`` is the query with every abstractable constant replaced
    by a parameter variable; ``params[i]`` was substituted for
    ``constants[i]``.  ``key`` identifies the shape: two queries that
    differ only in abstracted constants share it.
    """

    abstract: Query
    params: tuple[Variable, ...]
    constants: tuple[Constant, ...]
    key: str


def _is_ground_comparison(literal: Literal) -> bool:
    return (
        isinstance(literal, Comparison)
        and isinstance(literal.left, Constant)
        and isinstance(literal.right, Constant)
    )


def canonicalize(query: Query) -> CanonicalQuery:
    """Abstract the query's constants into parameter variables.

    Constants inside *ground* comparisons are kept: the rewriter folds
    those at plan time, so their values shape the plan by design.  A
    query with no answer variables is not abstracted at all — its
    (empty) projection is derived from the goals, and introducing
    parameters there would change it — so it caches under its exact
    shape, constants included.
    """
    if not query.answer_vars:
        return CanonicalQuery(
            abstract=query,
            params=(),
            constants=(),
            key=f"pattern::{query}",
        )
    params: list[Variable] = []
    constants: list[Constant] = []

    def abstract_term(term: Term) -> Term:
        if isinstance(term, Constant):
            param = Variable(f"{_PARAM_PREFIX}{len(params)}")
            params.append(param)
            constants.append(term)
            return param
        return term

    goals: list[Literal] = []
    for goal in query.goals:
        if isinstance(goal, Predicate):
            goals.append(
                Predicate(goal.name, tuple(abstract_term(a) for a in goal.args))
            )
        elif isinstance(goal, InAtom):
            goals.append(
                InAtom(
                    abstract_term(goal.output),
                    DomainCall(
                        goal.call.domain,
                        goal.call.function,
                        tuple(abstract_term(a) for a in goal.call.args),
                    ),
                )
            )
        elif _is_ground_comparison(goal):
            goals.append(goal)
        else:
            goals.append(
                Comparison(
                    goal.op, abstract_term(goal.left), abstract_term(goal.right)
                )
            )
    abstract = Query(tuple(goals), query.answer_vars)
    return CanonicalQuery(
        abstract=abstract,
        params=tuple(params),
        constants=tuple(constants),
        key=f"pattern::{abstract}",
    )


def exact_key(query: Query) -> str:
    """Cache key for a value-dependent query: constants included."""
    return f"exact::{query}"


@dataclass
class CachedPlan:
    """One plan-cache entry.

    ``template`` is the *unrouted* winning plan over ``params`` (or the
    concrete plan when ``params`` is empty); ``vector`` its estimated
    cost, ``None`` when the search could not price any ordering.  A
    ``value_dependent`` entry is a marker: the shape's plan depends on
    the constant values, look under the exact key instead.
    """

    template: Optional[Plan]
    vector: Optional[CostVector]
    params: tuple[Variable, ...]
    sources: frozenset[tuple[str, str]]
    epoch: int
    dcsm_version: int
    value_dependent: bool = False

    def instantiate(self, constants: tuple[Constant, ...]) -> Plan:
        """The template with this query's constants substituted in."""
        if self.template is None:
            raise ReproError("value-dependent marker entries hold no plan")
        if len(constants) != len(self.params):
            raise ReproError(
                f"plan template takes {len(self.params)} constants, "
                f"got {len(constants)}"
            )
        if not self.params:
            return self.template
        return self.template.substitute(dict(zip(self.params, constants)))


class PlanCache:
    """LRU cache of plan templates with epoch/version validation.

    Thread-safe: a shared mediator serves concurrent sessions, and an
    unguarded ``get`` races ``invalidate_source`` (deleting under an
    iterator) and its own stale-evict/``move_to_end`` bookkeeping.  One
    re-entrant lock guards every entry access and the hit/miss counters.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # drop reasons, itemized for the per-tier cache summary
        # (``evictions`` above stays the total, for compatibility)
        self.invalidations: dict[str, int] = {
            "epoch": 0,
            "dcsm_version": 0,
            "source": 0,
            "eviction": 0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, epoch: int, dcsm_version: int) -> Optional[CachedPlan]:
        """The entry under ``key`` if it is still valid, else ``None``
        (stale entries are evicted on the way out).  Counts a hit or a
        miss; a marker counts as neither — the caller retries with the
        exact key, and that lookup decides.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != epoch or (
                not entry.value_dependent and entry.dcsm_version != dcsm_version
            ):
                del self._entries[key]
                self.evictions += 1
                self.invalidations[
                    "epoch" if entry.epoch != epoch else "dcsm_version"
                ] += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            if not entry.value_dependent:
                self.hits += 1
            return entry

    def put(self, key: str, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self.invalidations["eviction"] += 1

    def items(self) -> Iterator[tuple[str, CachedPlan]]:
        """Snapshot of ``(key, entry)`` pairs (persistence walks this)."""
        with self._lock:
            return iter(list(self._entries.items()))

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Drop every entry whose plan calls the changed source."""
        with self._lock:
            dead = [
                key
                for key, entry in self._entries.items()
                if any(
                    d == domain and (function is None or f == function)
                    for d, f in entry.sources
                )
            ]
            for key in dead:
                del self._entries[key]
            self.evictions += len(dead)
            self.invalidations["source"] += len(dead)
            return len(dead)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.evictions += dropped
            self.invalidations["eviction"] += dropped
            return dropped


# -- persistence (warm restart) ------------------------------------------------
#
# Plan templates are pickled (they are graphs of frozen dataclasses; a
# JSON codec would re-implement half the term language for no benefit)
# together with the *program fingerprint* they were planned under.
#
# SECURITY — the storage location is a trust boundary.  ``pickle.loads``
# executes code chosen by whoever can write the store, so a plan store
# must live in a directory only the mediator's user can write (the
# default path expansion creates a per-user 0700 directory; see
# ``Mediator`` and docs/STORAGE.md).  Never point ``storage=`` /
# ``$REPRO_STORAGE_PATH`` at a world-writable location.
#
# A
# restarted mediator's epoch counter starts from zero again, so raw
# epochs cannot validate across processes — the fingerprint (a hash of
# the rules and invariants) is the cross-process epoch.  At adoption
# time entries whose fingerprint matches the current program are
# re-stamped with the live epoch and DCSM version; anything else is a
# stale plan and is dropped, not replayed.

PLAN_RECORD_VERSION = 1


@dataclass(frozen=True)
class PersistedPlan:
    """One plan-cache record as read back from a storage backend."""

    key: str
    fingerprint: str
    entry: CachedPlan


def save_plan_cache(
    cache: PlanCache,
    backend: "StorageBackend",
    fingerprint: str,
    epoch: int,
    dcsm_version: int,
    store: str = "plancache",
) -> int:
    """Rewrite the backend's plan store with the cache's *valid* entries.

    The store is replaced wholesale: plans dropped since the last save
    (evictions, invalidations) must not resurrect on the next warm
    start.  Invalidation is lazy — entries whose epoch predates an
    ``add_rule``/``add_invariant``/``load_program`` bump, or whose DCSM
    version is stale, linger in the cache until looked up — so the
    snapshot applies the same validity check :meth:`PlanCache.get` does
    against the live ``epoch`` and ``dcsm_version``.  Persisting a
    stale entry under the current fingerprint would resurrect it on
    warm restart as if it were planned under the current program.
    Returns the number of entries written.
    """
    for key, __ in list(backend.scan_prefix(store, "")):
        backend.delete(store, key)
    count = 0
    for key, entry in cache.items():
        if entry.epoch != epoch or (
            not entry.value_dependent and entry.dcsm_version != dcsm_version
        ):
            continue
        payload = pickle.dumps(
            {
                "version": PLAN_RECORD_VERSION,
                "key": key,
                "fingerprint": fingerprint,
                "entry": entry,
            }
        )
        backend.put(store, f"plan:{count:06d}", payload)
        count += 1
    return count


def load_plan_records(
    backend: "StorageBackend", store: str = "plancache"
) -> list[PersistedPlan]:
    """All decodable persisted plan records (undecodable ones are
    skipped — the next save replaces the store without them)."""
    records: list[PersistedPlan] = []
    for __, data in backend.scan_prefix(store, ""):
        try:
            payload = pickle.loads(data)
            if payload.get("version") != PLAN_RECORD_VERSION:
                raise StorageError(
                    f"unsupported plan record version {payload.get('version')!r}"
                )
            records.append(
                PersistedPlan(
                    key=payload["key"],
                    fingerprint=payload["fingerprint"],
                    entry=payload["entry"],
                )
            )
        except Exception:
            continue
    return records


def adopt_plan_records(
    cache: PlanCache,
    records: list[PersistedPlan],
    fingerprint: str,
    epoch: int,
    dcsm_version: int,
) -> tuple[int, list[PersistedPlan]]:
    """Install the records matching ``fingerprint`` into ``cache``.

    Matching entries are re-stamped with the live ``epoch`` and
    ``dcsm_version`` (their prices were derived from the statistics the
    warm start just reloaded).  Returns ``(adopted, remaining)`` where
    ``remaining`` holds the records that did not match — a later
    ``load_program`` may still claim them.
    """
    adopted = 0
    remaining: list[PersistedPlan] = []
    for record in records:
        if record.fingerprint != fingerprint:
            remaining.append(record)
            continue
        entry = replace(record.entry, epoch=epoch, dcsm_version=dcsm_version)
        cache.put(record.key, entry)
        adopted += 1
    return adopted, remaining
