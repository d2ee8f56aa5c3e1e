"""The mediator façade — the library's main entry point.

Wires together every subsystem of the paper's Figure 1 architecture:

* the **rule rewriter** (plan enumeration),
* the **rule cost estimator** (plan pricing via DCSM),
* the **DCSM** (statistics cache of actual call costs),
* the **CIM** (result cache + invariants),
* the **execution engine** (pipelined nested loops on a simulated clock),
* the **domain registry** (local substrates, optionally behind simulated
  remote sites).

Typical use::

    med = Mediator()
    med.register_domain(relational_engine, site="maryland")
    med.register_domain(avis, site="italy")
    med.load_program('''
        actors(A) :- in(Obj, video:actors_in('rope'))
                   & in(Row, relation:equal('cast', 'role', Obj))
                   & =(Row.name, A).
    ''')
    med.add_invariant("F1 <= F2 & L2 <= L1 => "
                      "video:frames_to_objects(V, F1, L1) >= "
                      "video:frames_to_objects(V, F2, L2).")
    result = med.query("?- actors(A).")
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from repro.cancellation import CancellationToken
from repro.cim.cache import POLICY_COST, ResultCache
from repro.cim.manager import CacheInvariantManager, CimPolicy
from repro.cim.persistence import load_result_records, save_result_cache
from repro.core.answers import QueryResult
from repro.core.estimator import PlanEstimate, RuleCostEstimator
from repro.core.executor import ContinueCallback, Executor, MODE_ALL, MODE_INTERACTIVE
from repro.core.model import GroundCall, Invariant, Program, Query, Rule
from repro.core.parser import parse_invariant, parse_program, parse_query
from repro.core.plancache import (
    CachedPlan,
    PersistedPlan,
    PlanCache,
    adopt_plan_records,
    canonicalize,
    exact_key,
    load_plan_records,
    save_plan_cache,
)
from repro.core.plans import Plan, PlanStep
from repro.core.rewriter import Rewriter, RewriterConfig
from repro.core.subplan import (
    PersistedSubplan,
    SubplanResultCache,
    adopt_subplan_records,
    canonicalize_prefix,
    load_subplan_records,
    replay_cost_ms,
    save_subplan_cache,
)
from repro.dcsm.module import DCSM
from repro.dcsm.persistence import load_observations, save_observations
from repro.domains.base import Domain
from repro.domains.registry import DomainRegistry
from repro.errors import EstimationError, PlanningError, ReproError, StorageError
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock
from repro.net.faults import FaultInjector, FaultSpec
from repro.net.health import HealthPolicy, HealthRegistry, HedgePolicy
from repro.net.policy import RetryPolicy
from repro.net.remote import RemoteDomain
from repro.net.sites import Site, make_site
from repro.runtime.repair import Completeness, PlanRepairer
from repro.runtime.singleflight import SingleFlight
from repro.storage.backend import StorageBackend, make_backend

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.core.cursor import QueryCursor
    from repro.core.executor import ExecutionResult

#: use_cim values: route nothing, everything, or a chosen set of domains.
CimRouting = Union[bool, set, frozenset, None]

#: what ``storage=`` accepts: nothing (``$REPRO_STORAGE``, else no
#: backend), a spec string for :func:`~repro.storage.backend.make_backend`,
#: or a backend.
StorageSpec = Union[None, str, StorageBackend]

#: distinguishes the storage paths of mediators created in one process
#: when a bare ``sqlite``/``sharded`` kind (no path) is requested.
_storage_seq = itertools.count()


def _default_storage_root() -> str:
    """A private, user-owned directory for default storage files.

    The stores are a trust boundary: plan-cache records are pickled, so
    anyone who can write the storage directory can execute code in the
    mediator process on warm start.  The default therefore must never be
    the shared system temp dir itself — it is a per-user subdirectory
    created with mode 0700 and verified to belong to this user, falling
    back to a fresh ``mkdtemp`` (0700 by construction) if that fails.
    """
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    root = os.path.join(tempfile.gettempdir(), f"repro-storage-{uid}")
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        if hasattr(os, "getuid") and os.stat(root).st_uid != os.getuid():
            raise OSError(f"{root} is not owned by the current user")
        os.chmod(root, 0o700)
    except OSError:
        root = tempfile.mkdtemp(prefix="repro-storage-")
    return root


def _expand_storage_spec(spec: str) -> str:
    """Give a path-less ``sqlite``/``sharded`` spec a private location.

    The CI backend matrix exports ``REPRO_STORAGE=sqlite`` for the whole
    test suite; every mediator must then get its *own* file (shared state
    across unrelated mediators would change observable behavior).  Files
    land under ``$REPRO_STORAGE_PATH`` (the conftest points it at a pytest
    temp dir) or a per-user 0700 directory (see
    :func:`_default_storage_root` for why never the shared temp dir).
    """
    kind = spec.strip().lower()
    if kind not in ("sqlite", "sharded"):
        return spec
    root = os.environ.get("REPRO_STORAGE_PATH") or _default_storage_root()
    unique = f"repro-storage-{os.getpid()}-{next(_storage_seq)}"
    if kind == "sqlite":
        return f"sqlite:{os.path.join(root, unique + '.db')}"
    return f"sharded:{os.path.join(root, unique)}"


class Mediator:
    """A HERMES-style mediator with cost-based optimization and caching."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        dcsm: Optional[DCSM] = None,
        cim: Optional[CacheInvariantManager] = None,
        rewriter_config: Optional[RewriterConfig] = None,
        cim_policy: CimPolicy = CimPolicy.SERIAL,
        record_statistics: bool = True,
        comparison_selectivity: float = 1.0,
        init_overhead_ms: float = 5.0,
        display_cost_ms: float = 0.05,
        use_predicate_first_stats: bool = False,
        memoize_calls: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        degrade_on_failure: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        verify_plans: bool = False,
        guided_search: bool = True,
        use_plan_cache: bool = True,
        plan_cache_entries: int = 256,
        jobs: Optional[int] = None,
        health_policy: Optional[HealthPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        repair: bool = False,
        repair_max_attempts: int = 2,
        storage: StorageSpec = None,
        warm_start: bool = False,
        cache_max_bytes: Optional[int] = None,
        use_subplan_cache: bool = False,
        subplan_cache_entries: int = 256,
        subplan_max_bytes: Optional[int] = None,
        subplan_ttl_ms: Optional[float] = None,
    ):
        self.clock = clock if clock is not None else SimClock()
        self.registry = DomainRegistry()
        # one registry shared by every subsystem, so `repro stats` sees the
        # whole picture; components passed in with their own registry keep it
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry_policy = retry_policy
        # persistent cache storage: memory is authoritative, and each cache
        # tier snapshots into the backend at flush (repro.storage).
        # storage=None consults $REPRO_STORAGE (the CI backend matrix);
        # without it the mediator has no backend at all.
        if storage is None:
            storage = os.environ.get("REPRO_STORAGE") or None
        self.storage: Optional[StorageBackend] = None
        if isinstance(storage, str):
            self.storage = make_backend(
                _expand_storage_spec(storage), metrics=self.metrics
            )
        elif storage is not None:
            self.storage = storage
            if getattr(self.storage, "metrics", None) is None:
                self.storage.metrics = self.metrics  # type: ignore[misc]
        if warm_start and self.storage is None:
            raise StorageError("warm_start=True needs a storage backend")
        self.warm_start = warm_start
        self.cache_max_bytes = cache_max_bytes
        # plan templates read back from the backend, waiting for a
        # load_program whose fingerprint matches the one they were
        # planned under (see _adopt_persisted_plans)
        self._pending_plans: list[PersistedPlan] = []
        self._storage_closed = False
        self._close_lock = threading.Lock()
        # self-healing: a health registry (breakers + latency windows) is
        # created when either health tracking or hedging is requested;
        # repair=True turns terminal call failures into partial answers
        # and re-plans around the sources that caused them
        self.health: Optional[HealthRegistry] = None
        if health_policy is not None or hedge_policy is not None:
            self.health = HealthRegistry(health_policy, metrics=self.metrics)
        self.hedge_policy = hedge_policy
        self.repair = repair
        self.repair_max_attempts = repair_max_attempts
        self.dcsm = (
            dcsm if dcsm is not None else DCSM(clock=self.clock, metrics=self.metrics)
        )
        if self.dcsm.metrics is None:
            self.dcsm.metrics = self.metrics
        if cim is not None:
            self.cim = cim
        else:
            # a byte budget switches the default result cache to the
            # cost-aware policy: victims are ranked by DCSM-estimated
            # recompute cost x hit frequency per byte, so cheap,
            # rarely-hit entries leave first
            if cache_max_bytes is not None:
                from repro.storage.evictor import CostFrequencyEvictor

                result_cache = ResultCache(
                    max_bytes=cache_max_bytes,
                    policy=POLICY_COST,
                    evictor=CostFrequencyEvictor(self._estimate_recompute_cost),
                    metrics=self.metrics,
                )
            else:
                result_cache = ResultCache(metrics=self.metrics)
            self.cim = CacheInvariantManager(
                self.registry,
                self.clock,
                cache=result_cache,
                policy=cim_policy,
                observer=self.dcsm.record if record_statistics else None,
                metrics=self.metrics,
            )
        if self.cim.metrics is None:
            self.cim.metrics = self.metrics
        if self.cim.cache.metrics is None:
            self.cim.cache.metrics = self.metrics
        self.program = Program()
        self.rewriter_config = (
            rewriter_config if rewriter_config is not None else RewriterConfig()
        )
        self.cost_estimator = RuleCostEstimator(
            self.dcsm, comparison_selectivity=comparison_selectivity
        )
        # the middle caching tier (docs/CACHING.md): materialized plan-prefix
        # results keyed by constant-abstracted canonical sub-patterns.  The
        # budget is per-tier: the subplan tier gets its own pool (defaulting
        # to cache_max_bytes) instead of competing with the CIM for one,
        # so intermediate results can never starve ground-call entries.
        self.use_subplan_cache = use_subplan_cache
        if subplan_max_bytes is None:
            subplan_max_bytes = cache_max_bytes
        from repro.storage.evictor import CostFrequencyEvictor

        self.subplan_cache = SubplanResultCache(
            max_entries=subplan_cache_entries,
            max_bytes=subplan_max_bytes,
            ttl_ms=subplan_ttl_ms,
            evictor=(
                CostFrequencyEvictor() if subplan_max_bytes is not None else None
            ),
            metrics=self.metrics,
            dcsm_version_fn=lambda: self.dcsm.version,
        )
        # single-flight over subplan keys, shared across queries: one
        # concurrent query's prefix materialization feeds another's
        self.subplan_flight = SingleFlight(self.metrics)
        self._pending_subplans: list[PersistedSubplan] = []
        self.executor = Executor(
            self.registry,
            self.clock,
            cim=self.cim,
            dcsm=self.dcsm,
            record_statistics=record_statistics,
            init_overhead_ms=init_overhead_ms,
            display_cost_ms=display_cost_ms,
            memoize_calls=memoize_calls,
            policy=retry_policy,
            degrade_on_failure=degrade_on_failure,
            metrics=self.metrics,
            verify_plans=verify_plans,
            health=self.health,
            hedge_policy=hedge_policy,
            partial_on_failure=repair,
            subplan=self.subplan_cache if use_subplan_cache else None,
        )
        if jobs is not None and jobs > 1:
            self.set_jobs(jobs)
        self._rewriter: Optional[Rewriter] = None
        # concurrent sessions may race the first query; without the lock
        # two threads could each build a Rewriter and split its state
        self._rewriter_lock = threading.Lock()
        # cost-guided branch-and-bound planning (Rewriter.search) instead
        # of enumerate-then-price; the plan cache memoizes winning plans
        # per constant-abstracted query shape
        self.guided_search = guided_search
        self.use_plan_cache = use_plan_cache
        self.plan_cache = PlanCache(max_entries=plan_cache_entries)
        # bumped whenever the planning inputs change (rules, invariants):
        # plan-cache entries from an older epoch are invalid
        self._plan_epoch = 0
        # paper §8's proposed remedy for first-answer underprediction:
        # "cache ... the time for the first answer of predicates in the
        # same way we cache statistics for domain calls".  When enabled,
        # single-predicate queries record their measured T_first, and
        # later predictions for that predicate are floored by the
        # historical average (backtracking makes reality slower than the
        # Σ T_firstᵢ formula, never faster).
        self.use_predicate_first_stats = use_predicate_first_stats
        if warm_start:
            self._load_warm_start()

    # -- persistent storage (warm restart) -----------------------------------------

    def _estimate_recompute_cost(self, call: GroundCall) -> Optional[float]:
        """DCSM-estimated T_all of re-running ``call`` (the cost-aware
        evictor's notion of an entry's replacement value)."""
        try:
            return self.dcsm.cost(call).t_all_ms
        except ReproError:
            return None

    def _load_warm_start(self) -> None:
        """Reload persisted cache state from the storage backend.

        CIM entries and DCSM observations restore immediately (they are
        valid regardless of what program gets loaded).  Plan templates
        are only *staged*: a template is valid for exactly the program it
        was planned under, so each one waits for a ``load_program`` /
        ``add_invariant`` whose fingerprint matches (see
        :meth:`_adopt_persisted_plans`); the rest are dropped at the next
        :meth:`flush_storage`, never replayed.
        """
        assert self.storage is not None
        cim_loaded = self.cim.cache.restore(
            load_result_records(self.storage), now_ms=self.clock.now_ms
        )
        dcsm_loaded = self.dcsm.restore(load_observations(self.storage))
        self._pending_plans = load_plan_records(self.storage)
        self._pending_subplans = load_subplan_records(self.storage)
        self.metrics.inc("storage.warm_start.cim_entries", float(cim_loaded))
        self.metrics.inc(
            "storage.warm_start.dcsm_observations", float(dcsm_loaded)
        )
        self.metrics.inc(
            "storage.warm_start.entries_loaded", float(cim_loaded + dcsm_loaded)
        )

    def _program_fingerprint(self) -> str:
        """Content hash of the planning inputs (rules + invariants +
        pre-rewrite configuration) — the cross-process equivalent of the
        in-process plan epoch.  The static-filter knob is part of the
        hash because it changes which program the rewriter actually
        plans: a template planned with filtering on must not be adopted
        by a mediator planning the unfiltered program (and vice versa).
        Only the *configuration* is hashed — running the analysis here
        would require building a Rewriter, which recursive programs
        (rightly) refuse."""
        hasher = hashlib.sha256()
        for text in sorted(str(rule) for rule in self.program):
            hasher.update(text.encode("utf-8"))
            hasher.update(b"\n")
        hasher.update(b"--invariants--\n")
        for text in sorted(str(inv) for inv in self.cim.invariants):
            hasher.update(text.encode("utf-8"))
            hasher.update(b"\n")
        hasher.update(b"--planner-config--\n")
        hasher.update(
            f"static_filter={'on' if self.rewriter_config.static_filter else 'off'}"
            f":v1\n".encode("utf-8")
        )
        return hasher.hexdigest()

    def _adopt_persisted_plans(self) -> None:
        """Install staged plan templates if the program now matches them.

        Adopted entries are re-stamped with the live plan epoch and DCSM
        version; ``summarize()`` runs first so the version they carry is
        the one the next lookup will compare against (otherwise the first
        estimate would bump it and lazily drop every adopted plan).
        """
        adopt_plans = bool(self._pending_plans) and self.use_plan_cache
        adopt_subplans = bool(self._pending_subplans) and self.use_subplan_cache
        if not (adopt_plans or adopt_subplans):
            return
        fingerprint = self._program_fingerprint()
        if adopt_plans:
            adopt_plans = any(
                r.fingerprint == fingerprint for r in self._pending_plans
            )
        if adopt_subplans:
            adopt_subplans = any(
                r.fingerprint == fingerprint for r in self._pending_subplans
            )
        if not (adopt_plans or adopt_subplans):
            return
        # one summarize for both tiers: a second bump would immediately
        # stale whichever tier was stamped first
        self.dcsm.summarize()
        if adopt_plans:
            adopted, self._pending_plans = adopt_plan_records(
                self.plan_cache,
                self._pending_plans,
                fingerprint,
                epoch=self._plan_epoch,
                dcsm_version=self.dcsm.version,
            )
            if adopted:
                self.metrics.inc("storage.warm_start.plans_adopted", float(adopted))
                self.metrics.inc("storage.warm_start.entries_loaded", float(adopted))
        if adopt_subplans:
            adopted, self._pending_subplans = adopt_subplan_records(
                self.subplan_cache,
                self._pending_subplans,
                fingerprint,
                dcsm_version=self.dcsm.version,
                now_ms=self.clock.now_ms,
            )
            if adopted:
                self.metrics.inc(
                    "storage.warm_start.subplans_adopted", float(adopted)
                )
                self.metrics.inc("storage.warm_start.entries_loaded", float(adopted))

    def flush_storage(self) -> None:
        """Snapshot every cache tier into the backend and make it durable.

        Each tier replaces its own store wholesale: the CIM entries
        (with their hit counts), the DCSM observation log, and — under
        the current program fingerprint — the plan and subplan caches,
        skipping lazily-invalidated entries whose epoch or DCSM version
        is stale, which must not masquerade as current-program plans on
        the next warm start.  The backend then flushes
        crash-consistently.  Staged warm-start plans that no program
        claimed are dropped here.  Without a backend nothing is written.
        If a tier's save raises, the backend rolls back to the previous
        flush before the error propagates.

        Raises :class:`~repro.errors.ReproError` after :meth:`close` —
        the backend is gone, and silently "flushing" nowhere would let
        callers believe their cache state was made durable.
        """
        if self._storage_closed:
            raise ReproError("storage is closed; nothing to flush")
        self._flush_storage()

    def _flush_storage(self) -> None:
        if self.storage is None:
            return
        try:
            self._save_tiers(self.storage)
        except BaseException:
            # a snapshot that failed partway (or was interrupted) must not
            # reach disk through a later flush or close
            self.storage.rollback()
            raise
        if self._pending_plans:
            self.metrics.inc(
                "storage.warm_start.plans_dropped", float(len(self._pending_plans))
            )
            self._pending_plans = []
        if self._pending_subplans:
            self.metrics.inc(
                "storage.warm_start.subplans_dropped",
                float(len(self._pending_subplans)),
            )
            self._pending_subplans = []
        self.storage.flush()

    def _save_tiers(self, storage: StorageBackend) -> None:
        save_result_cache(self.cim.cache, storage)
        save_observations(self.dcsm, storage)
        if self.use_plan_cache:
            save_plan_cache(
                self.plan_cache,
                storage,
                self._program_fingerprint(),
                epoch=self._plan_epoch,
                dcsm_version=self.dcsm.version,
            )
        if self.use_subplan_cache:
            save_subplan_cache(
                self.subplan_cache,
                storage,
                self._program_fingerprint(),
                dcsm_version=self.dcsm.version,
            )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (storage detached)."""
        return self._storage_closed

    def close(self) -> None:
        """Flush and close the storage backend.

        The mediator stays usable for queries afterwards — memory is
        authoritative, and nothing is snapshotted any more.  Idempotent:
        the flag flips under a lock before the flush, so concurrent or
        repeated ``close()`` calls flush exactly once.
        """
        with self._close_lock:
            if self._storage_closed:
                return
            self._storage_closed = True
        try:
            self._flush_storage()
        finally:
            if self.storage is not None:
                self.storage.close()

    # -- runtime configuration -----------------------------------------------------

    @property
    def jobs(self) -> int:
        """Worker count of the current execution engine (1 = sequential)."""
        return int(getattr(self.executor, "jobs", 1))

    def set_jobs(self, jobs: int) -> None:
        """Swap the execution engine between sequential and parallel.

        ``jobs > 1`` installs a :class:`repro.runtime.ParallelExecutor`
        with that many workers; ``jobs <= 1`` restores the sequential
        :class:`~repro.core.executor.Executor`.  The new engine inherits
        every knob of the old one (caches, clock, retry policy, ...), so
        switching mid-session keeps all accumulated state.
        """
        old = self.executor
        kwargs: dict[str, Any] = dict(
            cim=old.cim,
            dcsm=old.dcsm,
            record_statistics=old.record_statistics,
            init_overhead_ms=old.init_overhead_ms,
            display_cost_ms=old.display_cost_ms,
            memoize_calls=old.memoize_calls,
            memo_hit_cost_ms=old.memo_hit_cost_ms,
            policy=old.policy,
            degrade_on_failure=old.degrade_on_failure,
            metrics=old.metrics,
            verify_plans=old.verify_plans,
            health=old.health,
            hedge_policy=old.hedge_policy,
            partial_on_failure=old.partial_on_failure,
            subplan=old.subplan,
        )
        if jobs is not None and jobs > 1:
            from repro.runtime import ParallelExecutor

            self.executor = ParallelExecutor(
                old.registry,
                old.clock,
                jobs=jobs,
                subplan_flight=self.subplan_flight,
                **kwargs,
            )
        else:
            self.executor = Executor(old.registry, old.clock, **kwargs)

    # -- registration -------------------------------------------------------------

    def register_domain(
        self,
        domain: Domain,
        site: "str | Site | None" = None,
        seed: int = 0,
        faults: "FaultInjector | FaultSpec | None" = None,
    ) -> None:
        """Register a source; with ``site`` it is reached through the
        simulated network (by catalog name or an explicit ``Site``).
        ``faults`` injects probabilistic transient/timeout/permanent
        failures at that site (see :mod:`repro.net.faults`)."""
        if site is None:
            if faults is not None:
                raise ReproError(
                    "fault injection applies to remote sources; "
                    f"register {domain.name!r} with a site"
                )
            self.registry.add(domain)
            return
        if isinstance(site, str):
            site = make_site(site, seed=seed)
        self.registry.add(
            RemoteDomain(
                domain,
                site,
                self.clock,
                faults=faults,
                metrics=self.metrics,
                health=self.health,
            )
        )

    def load_program(self, program: "str | Program") -> None:
        """Add rules (text or a parsed Program) to the mediator."""
        if isinstance(program, str):
            program = parse_program(program)
        for rule in program:
            self.program.add(rule)
        self._rewriter = None
        self._plan_epoch += 1
        self.subplan_cache.bump_epoch()
        self._adopt_persisted_plans()

    def add_rule(self, rule: "str | Rule") -> None:
        if isinstance(rule, str):
            program = parse_program(rule)
            for parsed in program:
                self.program.add(parsed)
        else:
            self.program.add(rule)
        self._rewriter = None
        self._plan_epoch += 1
        self.subplan_cache.bump_epoch()
        self._adopt_persisted_plans()

    def add_invariant(self, invariant: "str | Invariant") -> None:
        if isinstance(invariant, str):
            invariant = parse_invariant(invariant)
        self.cim.add_invariant(invariant)
        # a new invariant changes what CIM routing can answer, so cached
        # plan choices (made without it) are stale
        self._plan_epoch += 1
        self.subplan_cache.bump_epoch()
        self._adopt_persisted_plans()

    def notify_source_changed(self, domain: str, function: Optional[str] = None) -> int:
        """Tell the mediator a source's data changed; drops the affected
        cached results so stale answers are not served.  Returns the
        number of cache entries dropped."""
        self.plan_cache.invalidate_source(domain, function)
        self.subplan_cache.invalidate_source(domain, function)
        return self.cim.notify_source_changed(domain, function)

    def validate_program(self) -> list:
        """Static pre-flight checks of the loaded rules against the
        registered domains (unknown domains/functions, arity mismatches,
        undefined predicates, unorderable bodies, recursion).  Returns a
        list of :class:`repro.core.validation.Issue`.

        :meth:`analyze` is the richer interface: stable diagnostic codes,
        invariant lint, and per-query reachable-adornment analysis.
        """
        from repro.core.validation import validate_program

        return validate_program(self.program, self.registry)

    def analyze(
        self,
        queries: Iterable["str | Query"] = (),
        include_invariants: bool = True,
    ) -> "AnalysisReport":
        """Run the full static analyzer over the loaded program.

        ``queries`` (``?- ...`` strings or parsed :class:`Query` objects)
        become the analysis roots: the analyzer computes the binding
        patterns actually reachable from them and flags predicates both
        unreachable and infeasible under those patterns.  Invariants
        registered with the CIM are linted unless
        ``include_invariants=False``.  Returns an
        :class:`~repro.analysis.diagnostics.AnalysisReport`; outcomes are
        counted in the metrics registry under ``analysis.*``.
        """
        from repro.analysis import analyze_program

        parsed = tuple(
            parse_query(query) if isinstance(query, str) else query
            for query in queries
        )
        invariants = tuple(self.cim.invariants) if include_invariants else ()
        return analyze_program(
            self.program,
            registry=self.registry,
            invariants=invariants,
            queries=parsed,
            metrics=self.metrics,
        )

    # -- planning -------------------------------------------------------------------

    @property
    def rewriter(self) -> Rewriter:
        if self._rewriter is None:
            with self._rewriter_lock:
                if self._rewriter is None:
                    self._rewriter = Rewriter(self.program, self.rewriter_config)
        return self._rewriter

    def plans(
        self,
        query: "str | Query",
        use_cim: CimRouting = None,
        bindings: Optional[dict] = None,
    ) -> tuple[Plan, ...]:
        """The executable plans for a query, with CIM routing applied.

        ``bindings`` pre-binds query variables by name (parameterised
        queries): bound variables count as bound for adornment purposes,
        enabling orderings a free variable would forbid.
        """
        if isinstance(query, str):
            query = parse_query(query)
        bound_vars = frozenset(self._bindings_subst(bindings))
        plans = self.rewriter.plans(query, bound_vars=bound_vars)
        return tuple(self._route(plan, use_cim) for plan in plans)

    @staticmethod
    def _bindings_subst(bindings: Optional[dict]) -> dict:
        """{"Name": value} → {Variable("Name"): Constant(value)}."""
        from repro.core.terms import Constant, Variable

        if not bindings:
            return {}
        return {
            Variable(name): Constant(value) for name, value in bindings.items()
        }

    def _route(self, plan: Plan, use_cim: CimRouting) -> Plan:
        if use_cim is True:
            return plan.with_cim(None)
        if isinstance(use_cim, (set, frozenset)) and use_cim:
            return plan.with_cim(set(use_cim))
        return plan

    def _make_subplan_probe(
        self, initial_subst: Optional[dict] = None
    ) -> Optional[Callable[[tuple[PlanStep, ...]], Optional[tuple[float, float]]]]:
        """The planner's view of the subplan tier: price a candidate
        prefix at replay cost when its materialization is cached.

        Uses ``peek`` (no hit/miss accounting — pricing a prefix the
        search may discard must not skew executor hit rates).  The search
        applies the result as a discount only, so its cost bound stays
        admissible; returning the cached cardinality also tightens the
        downstream ``T_all`` products with the true prefix cardinality.
        """
        if not self.use_subplan_cache or self.subplan_cache.entry_count == 0:
            return None
        cache = self.subplan_cache
        base_ms = self.executor.memo_hit_cost_ms
        clock = self.clock
        subst = dict(initial_subst or {})

        def probe(steps: tuple[PlanStep, ...]) -> Optional[tuple[float, float]]:
            try:
                canon = canonicalize_prefix(steps, subst)
            except ReproError:
                return None
            # read the clock per probe: with subplan_ttl_ms a frozen
            # timestamp would price a prefix that expires before execution
            entry = cache.peek(canon.key, now_ms=clock.now_ms)
            if entry is None:
                return None
            return replay_cost_ms(len(entry.rows), base_ms), float(len(entry.rows))

        return probe

    def _plan_guided(
        self,
        query: Query,
        objective: str,
        use_cim: CimRouting,
        bindings: Optional[dict],
    ) -> tuple[Plan, Optional[PlanEstimate]]:
        """Plan via cost-guided search, consulting the plan cache first.

        On a cache hit the stored template is instantiated with this
        query's constants and returned without touching the rewriter or
        the DCSM.  On a miss the branch-and-bound search runs over the
        constant-abstracted query (so the resulting template is
        reusable); queries whose unfolding specialises on a constant
        value are replanned concretely and cached under an exact key.
        """
        user_bound = frozenset(self._bindings_subst(bindings))
        prefix = (
            f"{objective}|{','.join(sorted(v.name for v in user_bound))}|"
        )
        canonical = canonicalize(query)
        abstract_key = prefix + canonical.key
        epoch = self._plan_epoch

        if self.use_plan_cache:
            entry = self.plan_cache.get(abstract_key, epoch, self.dcsm.version)
            if entry is not None and entry.value_dependent:
                entry = self.plan_cache.get(
                    prefix + exact_key(query), epoch, self.dcsm.version
                )
            if entry is not None and not entry.value_dependent:
                self.metrics.inc("planner.plan_cache_hits")
                plan = entry.instantiate(
                    canonical.constants if entry.params else ()
                )
                routed = self._route(plan, use_cim)
                estimate = (
                    PlanEstimate(plan=routed, vector=entry.vector, steps=())
                    if entry.vector is not None
                    else None
                )
                return routed, estimate
            self.metrics.inc("planner.plan_cache_misses")

        session = self.cost_estimator.session()
        bindings_subst = self._bindings_subst(bindings)
        value_dependent = False
        if canonical.params:
            const_subst = dict(zip(canonical.params, canonical.constants))
            result = self.rewriter.search(
                canonical.abstract,
                self.cost_estimator,
                objective=objective,
                bound_vars=user_bound | frozenset(canonical.params),
                track_vars=frozenset(canonical.params),
                session=session,
                const_subst=const_subst,
                subplan_probe=self._make_subplan_probe(
                    {**bindings_subst, **const_subst}
                ),
            )
            value_dependent = bool(result.unified_away)
            if value_dependent:
                # unfolding specialised on a parameter's value (a rule
                # head carries a constant there): the abstract template
                # is not reusable — plan the concrete query instead
                result = self.rewriter.search(
                    query,
                    self.cost_estimator,
                    objective=objective,
                    bound_vars=user_bound,
                    session=session,
                    subplan_probe=self._make_subplan_probe(bindings_subst),
                )
                concrete = result.plan
            else:
                concrete = result.plan.substitute(const_subst)
        else:
            result = self.rewriter.search(
                query,
                self.cost_estimator,
                objective=objective,
                bound_vars=user_bound,
                session=session,
                subplan_probe=self._make_subplan_probe(bindings_subst),
            )
            concrete = result.plan

        self.metrics.inc("planner.searches")
        self.metrics.inc("planner.states_expanded", result.stats.states_expanded)
        self.metrics.inc("planner.states_pruned", result.stats.states_pruned)
        self.metrics.inc("planner.estimator_lookups", session.lookups)
        self.metrics.inc("planner.estimator_memo_hits", session.memo_hits)
        self.metrics.inc("planner.tail_completions", result.stats.tail_completions)
        if result.stats.rules_filtered:
            self.metrics.inc("planner.rules_filtered", result.stats.rules_filtered)
        if result.stats.literals_filtered:
            self.metrics.inc(
                "planner.literals_filtered", result.stats.literals_filtered
            )

        routed = self._route(concrete, use_cim)
        estimate: Optional[PlanEstimate] = None
        if result.priced:
            assert result.vector is not None
            try:
                estimate = self.cost_estimator.estimate(
                    routed, bound_vars=user_bound, session=session
                )
            except EstimationError:
                estimate = PlanEstimate(
                    plan=routed, vector=result.vector, steps=()
                )

        if self.use_plan_cache:
            # unpriced plans are not cached: a hit would keep serving the
            # fallback ordering and never notice statistics arriving
            version = self.dcsm.version
            if value_dependent:
                self.plan_cache.put(
                    abstract_key,
                    CachedPlan(
                        template=None,
                        vector=None,
                        params=(),
                        sources=frozenset(),
                        epoch=epoch,
                        dcsm_version=version,
                        value_dependent=True,
                    ),
                )
            if result.priced:
                if value_dependent:
                    key = prefix + exact_key(query)
                    template, params = result.plan, ()
                else:
                    key = abstract_key
                    template, params = result.plan, canonical.params
                self.plan_cache.put(
                    key,
                    CachedPlan(
                        template=template,
                        vector=result.vector,
                        params=params,
                        sources=template.sources(),
                        epoch=epoch,
                        dcsm_version=version,
                    ),
                )
        return routed, estimate

    def plan_avoiding(
        self,
        query: "str | Query",
        avoid_domains: frozenset,
        objective: str = "all",
        use_cim: CimRouting = None,
        bindings: Optional[dict] = None,
    ) -> Plan:
        """Plan ``query`` without dialing any domain in ``avoid_domains``.

        The repair path's planner entry point: rewritings that call an
        avoided domain are dropped, so only alternate rules (union
        branches, equality-invariant substitutes reaching the data
        through a different source) survive.  The plan cache is bypassed
        — avoid-sets describe a transient outage, not the program.
        Raises :class:`PlanningError` when nothing avoids the set.
        """
        if isinstance(query, str):
            query = parse_query(query)
        user_bound = frozenset(self._bindings_subst(bindings))
        result = self.rewriter.search(
            query,
            self.cost_estimator,
            objective=objective,
            bound_vars=user_bound,
            avoid_domains=frozenset(avoid_domains),
        )
        return self._route(result.plan, use_cim)

    # -- querying --------------------------------------------------------------------

    def query(
        self,
        query: "str | Query",
        mode: str = MODE_ALL,
        use_cim: CimRouting = None,
        optimize: bool = True,
        plan: Optional[Plan] = None,
        max_answers: Optional[int] = None,
        batch_size: int = 10,
        continue_callback: Optional[ContinueCallback] = None,
        semantics: str = "access-paths",
        deduplicate: bool = False,
        bindings: Optional[dict] = None,
        max_time_ms: Optional[float] = None,
        trace: bool = False,
        cancel_token: Optional["CancellationToken"] = None,
    ) -> QueryResult:
        """Plan, optimize, and execute a query.

        * ``optimize=True`` prices every candidate plan through the DCSM
          and runs the cheapest (T_all for ``mode="all"``, T_first for
          ``mode="interactive"``); plans the DCSM cannot price (no
          statistics yet) lose ties to priced ones, and when *nothing* can
          be priced the first plan runs (and its measured costs seed the
          statistics cache for next time).
        * ``plan=`` bypasses planning and runs exactly that plan (used by
          the experiments to execute a specific rewriting).
        * ``use_cim`` routes calls through the Cache and Invariant
          Manager: ``True`` for all domains, a set of names for some.
        * ``semantics`` — ``"access-paths"`` (the paper's model: multiple
          rules per predicate are equivalent ways to reach the *same*
          relation, so exactly one rewriting runs) or ``"union"`` (datalog
          union: one best ordering per distinct rule-choice combination
          runs, answers concatenated; ``deduplicate=True`` removes
          duplicate answer tuples across branches).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if semantics not in ("access-paths", "union"):
            raise PlanningError(f"unknown query semantics {semantics!r}")
        if semantics == "union" and plan is None:
            return self._query_union(
                query, mode, use_cim, optimize, max_answers, deduplicate
            )
        initial_subst = self._bindings_subst(bindings)
        bound_vars = frozenset(initial_subst)
        candidates: tuple[Plan, ...]
        if plan is not None:
            candidates = (plan,)
            chosen = plan
            chosen_estimate: Optional[PlanEstimate] = None
            estimates: tuple[Optional[PlanEstimate], ...] = (None,)
            try:
                chosen_estimate = self.cost_estimator.estimate(plan)
                estimates = (chosen_estimate,)
            except Exception:
                pass
        elif optimize and self.guided_search:
            objective = "first" if mode == MODE_INTERACTIVE else "all"
            chosen, chosen_estimate = self._plan_guided(
                query, objective, use_cim, bindings
            )
            candidates = (chosen,)
            estimates = (chosen_estimate,)
        else:
            candidates = self.plans(query, use_cim, bindings=bindings)
            if optimize and len(candidates) > 1:
                objective = "first" if mode == MODE_INTERACTIVE else "all"
                winner, estimates = self.cost_estimator.choose(
                    candidates, objective=objective, bound_vars=bound_vars
                )
                if winner is not None:
                    chosen = winner.plan
                    chosen_estimate = winner
                else:
                    chosen = candidates[0]
                    chosen_estimate = None
            else:
                chosen = candidates[0]
                estimates = tuple(None for _ in candidates)
                chosen_estimate = None
                try:
                    chosen_estimate = self.cost_estimator.estimate(chosen)
                    estimates = (chosen_estimate,) + tuple(
                        None for _ in candidates[1:]
                    )
                except Exception:
                    pass

        chosen_estimate = self._apply_predicate_first(query, chosen_estimate)
        run_kwargs: dict[str, Any] = dict(
            mode=mode,
            max_answers=max_answers,
            batch_size=batch_size,
            continue_callback=continue_callback,
            initial_subst=initial_subst,
            max_time_ms=max_time_ms,
            trace=trace,
            cancel_token=cancel_token,
        )
        execution = self.executor.run(chosen, **run_kwargs)
        if self.repair and execution.missing_sources:
            # self-healing: re-plan around the sources that just failed,
            # fall back to CIM/stale answers, or keep annotated partials
            objective = "first" if mode == MODE_INTERACTIVE else "all"
            repairer = PlanRepairer(self, max_attempts=self.repair_max_attempts)
            chosen, execution, completeness = repairer.repair(
                query,
                chosen,
                execution,
                objective=objective,
                use_cim=use_cim,
                bindings=bindings,
                run_kwargs=run_kwargs,
            )
        else:
            completeness = Completeness.of(execution)
        self._record_predicate_first(query, execution)
        self._observe_query(execution, chosen_estimate)
        return QueryResult(
            query=query,
            execution=execution,
            chosen=chosen,
            chosen_estimate=chosen_estimate,
            candidate_plans=candidates,
            estimates=estimates,
            completeness=completeness,
        )

    def cursor(
        self,
        query: "str | Query",
        use_cim: CimRouting = None,
        optimize: bool = True,
        plan: Optional[Plan] = None,
        bindings: Optional[dict] = None,
    ) -> "QueryCursor":
        """Open a lazy cursor over the query (paper §3's interactive
        mode as an API): ``fetch(n)`` pulls batches, ``close()`` abandons
        the remaining simulated work."""
        from repro.core.cursor import QueryCursor

        if isinstance(query, str):
            query = parse_query(query)
        if plan is None:
            if optimize and self.guided_search:
                plan, __ = self._plan_guided(query, "first", use_cim, bindings)
            else:
                candidates = self.plans(query, use_cim, bindings=bindings)
                if optimize and len(candidates) > 1:
                    winner, __ = self.cost_estimator.choose(
                        candidates,
                        objective="first",
                        bound_vars=frozenset(self._bindings_subst(bindings)),
                    )
                    plan = winner.plan if winner is not None else candidates[0]
                else:
                    plan = candidates[0]
        cursor = QueryCursor(self.executor, plan, self.clock)
        if bindings:
            # rebuild the stream with the initial substitution applied
            cursor._stream = self.executor.stream(
                plan, initial_subst=self._bindings_subst(bindings)
            )
        return cursor

    def _observe_query(
        self,
        execution: "ExecutionResult",
        chosen_estimate: Optional[PlanEstimate],
    ) -> None:
        """Per-query metrics, including the DCSM's estimate-vs-actual error."""
        self.metrics.inc("mediator.queries")
        self.metrics.inc("mediator.answers", float(execution.cardinality))
        self.metrics.observe("mediator.query_ms", execution.t_all_ms)
        if execution.degraded_calls:
            self.metrics.inc("mediator.degraded_queries")
        if execution.missing_sources:
            self.metrics.inc("mediator.partial_queries")
        if execution.hedged_calls:
            self.metrics.inc("mediator.hedged_queries")
        if chosen_estimate is not None:
            self.dcsm.record_estimate_error(
                chosen_estimate.vector, execution.t_first_ms, execution.t_all_ms
            )

    # -- predicate-level first-answer statistics (paper §8 remedy) -----------------

    @staticmethod
    def _query_predicate_key(query: Query) -> Optional[tuple[str, int]]:
        from repro.core.model import Predicate

        if len(query.goals) == 1 and isinstance(query.goals[0], Predicate):
            goal = query.goals[0]
            return (goal.name, goal.arity)
        return None

    def _record_predicate_first(
        self, query: Query, execution: "ExecutionResult"
    ) -> None:
        if not self.use_predicate_first_stats:
            return
        key = self._query_predicate_key(query)
        if key is not None and execution.t_first_ms is not None:
            self.dcsm.record_predicate_first(key[0], key[1], execution.t_first_ms)

    def _apply_predicate_first(
        self, query: Query, estimate: Optional[PlanEstimate]
    ) -> Optional[PlanEstimate]:
        """Floor the formula's T_first with the predicate's history."""
        if not self.use_predicate_first_stats or estimate is None:
            return estimate
        key = self._query_predicate_key(query)
        if key is None:
            return estimate
        historical = self.dcsm.predicate_first_estimate(*key)
        if historical is None or estimate.t_first_ms >= historical:
            return estimate
        from dataclasses import replace

        from repro.dcsm.vectors import CostVector

        corrected = CostVector(
            t_first_ms=historical,
            t_all_ms=estimate.vector.t_all_ms,
            cardinality=estimate.vector.cardinality,
        )
        return replace(estimate, vector=corrected)

    def _query_union(
        self,
        query: Query,
        mode: str,
        use_cim: CimRouting,
        optimize: bool,
        max_answers: Optional[int],
        deduplicate: bool,
    ) -> QueryResult:
        """Union semantics: run one best ordering per rule-choice branch
        and merge the answers."""
        from collections import Counter

        from repro.core.executor import ExecutionResult

        candidates = self.plans(query, use_cim)
        branches: dict[str, list[Plan]] = {}
        for candidate in candidates:
            branches.setdefault(candidate.origin, []).append(candidate)

        chosen_plans: list[Plan] = []
        chosen_estimates: list[Optional[PlanEstimate]] = []
        for plans in branches.values():
            if optimize and len(plans) > 1:
                objective = "first" if mode == MODE_INTERACTIVE else "all"
                winner, __ = self.cost_estimator.choose(plans, objective=objective)
                chosen_plans.append(winner.plan if winner else plans[0])
                chosen_estimates.append(winner)
            else:
                chosen_plans.append(plans[0])
                try:
                    chosen_estimates.append(self.cost_estimator.estimate(plans[0]))
                except Exception:
                    chosen_estimates.append(None)

        answers: list[tuple] = []
        seen: set[tuple] = set()
        provenance: Counter = Counter()
        calls = 0
        retries = 0
        degraded_calls = 0
        hedged_calls = 0
        missing_sources: set[str] = set()
        t_first: Optional[float] = None
        start_ms = self.clock.now_ms
        complete = True
        answer_vars = query.answer_vars
        for branch_plan in chosen_plans:
            remaining = (
                None if max_answers is None else max_answers - len(answers)
            )
            if remaining is not None and remaining <= 0:
                complete = False
                break
            execution = self.executor.run(
                branch_plan, mode=mode, max_answers=remaining
            )
            provenance.update(execution.provenance)
            calls += execution.calls
            retries += execution.retries
            degraded_calls += execution.degraded_calls
            hedged_calls += execution.hedged_calls
            missing_sources |= execution.missing_sources
            complete = complete and execution.complete
            elapsed_before_branch = (
                self.clock.now_ms - start_ms - execution.t_all_ms
            )
            for answer in execution.answers:
                if deduplicate:
                    if answer in seen:
                        continue
                    seen.add(answer)
                answers.append(answer)
            if (
                t_first is None
                and execution.answers
                and execution.t_first_ms is not None
            ):
                t_first = elapsed_before_branch + execution.t_first_ms
        merged = ExecutionResult(
            answers=tuple(answers),
            answer_vars=answer_vars,
            t_first_ms=t_first,
            t_all_ms=self.clock.now_ms - start_ms,
            complete=complete,
            calls=calls,
            provenance=provenance,
            retries=retries,
            degraded_calls=degraded_calls,
            hedged_calls=hedged_calls,
            missing_sources=frozenset(missing_sources),
        )
        # no estimate-error sample here: branch estimates do not price the union
        self._observe_query(merged, None)
        return QueryResult(
            query=query,
            execution=merged,
            chosen=chosen_plans[0],
            chosen_estimate=chosen_estimates[0] if chosen_estimates else None,
            candidate_plans=candidates,
            estimates=tuple(chosen_estimates),
            completeness=Completeness.of(merged),
        )

    # -- training helpers (experiments) ----------------------------------------------

    def train(self, queries: Iterable["str | Query"], **kwargs: Any) -> int:
        """Run queries purely to populate the statistics cache; returns
        how many observations DCSM now holds."""
        for q in queries:
            self.query(q, optimize=False, **kwargs)
        return self.dcsm.observation_count()
