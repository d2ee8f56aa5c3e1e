"""An interactive mediator shell.

Run ``python -m repro`` for a REPL over a mediator; load one of the
built-in demo testbeds or your own program files, then type queries.

Commands (everything else is parsed as a rule or a query):

    :demo rope|logistics      load a wired demo testbed
    :load FILE                load a mediator program file
    :invariant TEXT.          add an invariant
    :plans ?- q(...).         list candidate plans
    :explain ?- q(...).       plans + cost estimates
    :cim on|off               route queries through the cache manager
    :jobs N                   run queries with N parallel workers (1 = sequential)
    :storage [flush]          cache storage backend summary; 'flush' persists now
    :cache                    per-tier cache summary (cim / plan / subplan)
    :validate                 static checks of rules vs registered domains
    :stats                    DCSM / CIM / planner / runtime / health counters
    :health                   per-source breaker state, error rate, latency quantiles
    :metrics                  the shared metrics registry (counters/histograms)
    :save-stats FILE          save DCSM statistics to the SQLite file FILE
    :load-stats FILE          add the DCSM statistics saved in FILE
    :domains                  registered domains and their functions
    :help                     this text
    :quit                     leave

Queries start with ``?-``; bare rules (``head :- body.``) extend the
program.

There are also non-interactive subcommands::

    python -m repro stats [--demo NAME] [--cim] [--flaky RATE] [--jobs N]
                          [--health] [--storage SPEC] [--warm-start]
                          [QUERY ...]

which loads a demo testbed, runs the given queries (``?- ...`` strings),
and prints the end-to-end metrics report — clock, DCSM, CIM, and every
counter/histogram the run recorded.  ``--flaky RATE`` injects transient
faults at every remote site with the given per-attempt probability and
enables the default retry policy, so the report shows the resilience
counters (``executor.retries``, ``net.faults.*``) in action.  ``--jobs
N`` runs the queries on the parallel execution engine with N workers
(see ``docs/RUNTIME.md``), so the report includes the ``runtime.*``
scheduler counters.  ``--health`` turns on source-health tracking
(circuit breakers + latency windows, ``docs/HEALTH.md``) and adds a
per-source health table to the report.  ``--storage SPEC`` gives the
caches a persistent backend (``sqlite:PATH``, ``sharded:DIR``, see
``docs/STORAGE.md``); each cache tier snapshots into it before the
report.  With ``--warm-start`` the previous run's cached results,
statistics, and plan templates are reloaded first.  Without
``--storage`` (or ``$REPRO_STORAGE``) nothing is persisted.

::

    python -m repro lint [--demo NAME] [--json] [--query "?- ..."]
                         [--invariants FILE] [FILE ...]

runs the static analyzer (see ``docs/ANALYSIS.md`` for the diagnostic
catalog) over the given program files — or over the demo's own program
when no files are given.  ``--demo`` supplies the domain registry and
invariants (without it, registration checks are skipped); ``--query``
(repeatable) adds analysis roots for the reachable-adornment and
dead-code passes; ``--invariants FILE`` lints extra invariants.  Exit
status: 0 clean, 1 warnings only, 2 errors.

::

    python -m repro serve [--demo NAME] [--host H] [--port P] [--workers N]
                          [--jobs N] [--queue-depth N] [--tenant-depth N]
                          [--warm-threshold N] [--storage SPEC] [--warm-start]
                          [--max-seconds S]

boots the multi-tenant mediator service (``docs/SERVING.md``) over one
shared mediator: newline-delimited JSON protocol, bounded admission
queue with backpressure, weighted-fair per-tenant dequeueing, and an
async cache-warming worker (``--warm-threshold N`` warms a query
template once N sessions have sent its shape).  Runs until SIGINT
(graceful drain) or ``--max-seconds``.

::

    python -m repro load [--host H] [--port P] [--tenant NAME ...]
                         [--query "?- ..." ...] [--requests N] [--rate QPS]
                         [--connections C] [--json]

drives a running server with an open-loop load (requests are sent on
schedule regardless of response latency, so admission backpressure is
observable) and prints the throughput/latency report.
"""

from __future__ import annotations

import os
import sqlite3
import sys
from pathlib import Path
from typing import IO, Optional

from repro.core.explain import explain, explain_last_execution
from repro.core.mediator import Mediator
from repro.dcsm.persistence import load_observations, save_observations
from repro.errors import ReproError
from repro.report import storage_kind
from repro.storage.sqlite import SqliteBackend

_HELP = __doc__.split("Commands", 1)[1]


def _build_demo(name: str, **mediator_kwargs: object) -> Mediator:
    if name == "rope":
        from repro.workloads.datasets import build_rope_testbed

        return build_rope_testbed(**mediator_kwargs)
    if name == "logistics":
        from repro.workloads.datasets import (
            build_inventory_engine,
            build_logistics_terrain,
        )

        mediator = Mediator(**mediator_kwargs)  # type: ignore[arg-type]
        mediator.register_domain(build_inventory_engine(), site="maryland")
        mediator.register_domain(build_logistics_terrain(), site="bucknell")
        mediator.load_program(
            """
            routetosupplies(From, Item, To, Cost) :-
                in(T, ingres:select_eq('inventory', 'item', Item)) &
                =(T.loc, To) &
                in(R, terraindb:findrte(From, To)) &
                =(R.cost, Cost).
            """
        )
        return mediator
    raise ReproError(f"unknown demo {name!r} (try: rope, logistics)")


class MediatorShell:
    """A line-oriented shell around one Mediator."""

    def __init__(
        self,
        mediator: Optional[Mediator] = None,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
    ):
        self.mediator = mediator if mediator is not None else Mediator()
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.use_cim = False
        self.running = False
        self.exit_status = 0

    # -- plumbing ---------------------------------------------------------

    def write(self, text: str = "") -> None:
        self.stdout.write(text + "\n")

    def run(self) -> int:
        """Read-eval-print until :quit or EOF.  Returns the exit status
        (nonzero when a ``:validate`` found errors)."""
        self.running = True
        self.write("repro mediator shell — :help for commands")
        while self.running:
            self.stdout.write("hermes> ")
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                break
            self.handle(line.strip())
        return self.exit_status

    def handle(self, line: str) -> None:
        """Process one input line (public so tests can drive it)."""
        if not line or line.startswith("%") or line.startswith("#"):
            return
        try:
            if line.startswith(":"):
                self._command(line)
            elif line.startswith("?-"):
                self._query(line)
            else:
                self.mediator.add_rule(line)
                self.write("rule added.")
        except ReproError as exc:
            self.write(f"error: {exc}")
        except LookupError as exc:
            self.write(f"error: {exc}")

    # -- commands ------------------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (":quit", ":q", ":exit"):
            self.running = False
            self.write("bye.")
        elif command == ":help":
            self.write("Commands" + _HELP)
        elif command == ":demo":
            self.mediator = _build_demo(argument)
            self.write(f"demo '{argument}' loaded "
                       f"({len(self.mediator.program)} rules, "
                       f"domains: {', '.join(self.mediator.registry.names())})")
        elif command == ":load":
            with open(argument) as handle:
                self.mediator.load_program(handle.read())
            self.write(f"loaded {argument} ({len(self.mediator.program)} rules total)")
        elif command == ":invariant":
            self.mediator.add_invariant(argument)
            self.write("invariant added.")
        elif command == ":plans":
            for i, plan in enumerate(self.mediator.plans(argument), start=1):
                self.write(f"{i}. {plan}")
        elif command == ":explain":
            self.write(explain(self.mediator, argument, use_cim=self.use_cim or None))
        elif command == ":cim":
            self.use_cim = argument == "on"
            self.write(f"CIM routing {'on' if self.use_cim else 'off'}.")
        elif command == ":jobs":
            try:
                jobs = int(argument)
            except ValueError:
                raise ReproError(
                    f":jobs requires an integer worker count, got {argument!r}"
                ) from None
            if jobs < 1:
                raise ReproError(f":jobs requires at least 1 worker, got {jobs}")
            self.mediator.set_jobs(jobs)
            engine = "parallel" if jobs > 1 else "sequential"
            self.write(f"execution engine: {engine} ({jobs} worker(s)).")
        elif command == ":storage":
            if argument == "flush":
                self.mediator.flush_storage()
                self.write("storage flushed.")
            elif argument:
                raise ReproError(
                    f":storage takes no argument or 'flush', got {argument!r}"
                )
            self.write(_storage_summary(self.mediator))
        elif command == ":cache":
            self.write(_cache_summary(self.mediator))
        elif command == ":validate":
            report = self.mediator.analyze()
            if report.clean:
                self.write("program OK: no issues found.")
            else:
                self.write(report.render_text())
                if report.errors:
                    self.exit_status = 1
        elif command == ":stats":
            self.write(f"clock: {self.mediator.clock.now_ms:.1f} simulated ms")
            self.write(f"DCSM:  {self.mediator.dcsm.observation_count()} observations")
            self.write(f"CIM:   {self.mediator.cim.stats}")
            self.write(f"cache: {len(self.mediator.cim.cache)} entries, "
                       f"{self.mediator.cim.cache.total_bytes} bytes")
            self.write(_cache_summary(self.mediator))
            self.write(_planner_summary(self.mediator))
            self.write(_runtime_summary(self.mediator))
            self.write(_analysis_summary(self.mediator))
            self.write(_health_summary(self.mediator))
        elif command == ":health":
            self.write(_health_summary(self.mediator))
        elif command == ":metrics":
            self.write(self.mediator.metrics.render())
        elif command == ":save-stats":
            backend = _stats_backend(argument, create=True)
            try:
                count = save_observations(self.mediator.dcsm, backend)
            finally:
                backend.close()
            self.write(f"saved {count} observations to {argument}")
        elif command == ":load-stats":
            backend = _stats_backend(argument, create=False)
            try:
                count = self.mediator.dcsm.restore(load_observations(backend))
            finally:
                backend.close()
            self.write(f"loaded {count} observations from {argument}")
        elif command == ":domains":
            for endpoint in self.mediator.registry:
                domain = getattr(endpoint, "domain", endpoint)
                functions = ", ".join(sorted(domain.functions))
                site = getattr(getattr(endpoint, "site", None), "name", "local")
                self.write(f"{endpoint.name} @ {site}: {functions}")
        else:
            self.write(f"unknown command {command} — :help for help")

    def _query(self, line: str) -> None:
        result = self.mediator.query(line, use_cim=self.use_cim or None)
        self.write(str(result))
        self.write(explain_last_execution(result))


def _planner_summary(mediator: Mediator) -> str:
    """One-line planner report: searches, pruning, and plan-cache traffic."""
    metrics = mediator.metrics
    return (
        f"planner: {metrics.value('planner.searches'):.0f} searches, "
        f"{metrics.value('planner.states_pruned'):.0f} states pruned, "
        f"{metrics.value('planner.tail_completions'):.0f} tail completions, "
        f"{metrics.value('planner.estimator_memo_hits'):.0f} estimator memo hits; "
        f"static filter dropped {metrics.value('planner.rules_filtered'):.0f} "
        f"rule(s) / {metrics.value('planner.literals_filtered'):.0f} literal(s); "
        f"plan cache {metrics.value('planner.plan_cache_hits'):.0f} hits / "
        f"{metrics.value('planner.plan_cache_misses'):.0f} misses "
        f"({len(mediator.plan_cache)} entries)"
    )


def _analysis_summary(mediator: Mediator) -> str:
    """One-line static-analysis report; running it also records the
    per-pass ``analysis.pass_ms.*`` timings into the metrics registry."""
    report = mediator.analyze()
    return (
        f"analysis: {len(report.diagnostics)} diagnostic(s) "
        f"({len(report.errors)} error(s), {len(report.warnings)} warning(s)) "
        f"over {mediator.metrics.value('analysis.runs'):.0f} run(s); "
        f"per-pass wall time under analysis.pass_ms.* below"
    )


def _runtime_summary(mediator: Mediator) -> str:
    """One-line parallel-runtime report: dispatch, dedup, cancellation."""
    metrics = mediator.metrics
    return (
        f"runtime: {mediator.jobs} worker(s), "
        f"{metrics.value('runtime.dispatched'):.0f} dispatched, "
        f"{metrics.value('runtime.singleflight.deduped'):.0f} deduped, "
        f"{metrics.value('runtime.cancelled'):.0f} cancelled, "
        f"queue high-watermark {metrics.value('runtime.queue.high_watermark'):.0f}"
    )


def _cache_summary(mediator: Mediator) -> str:
    """Per-tier cache report: hit rate, occupancy, and invalidations by
    reason for each of the three tiers (see ``docs/CACHING.md``)."""

    def reasons(counts: dict[str, int]) -> str:
        shown = " ".join(f"{k}={v}" for k, v in counts.items() if v)
        return f" invalidated[{shown}]" if shown else ""

    cim = mediator.cim.cache
    cim_line = (
        f"  cim     : hit_rate={cim.stats.hit_rate:.2f} "
        f"entries={len(cim)} bytes={cim.total_bytes}"
        + reasons(
            {
                "source": cim.source_invalidations,
                "ttl": cim.stats.expirations,
                "eviction": cim.stats.evictions,
            }
        )
    )
    plans = mediator.plan_cache
    plan_lookups = plans.hits + plans.misses
    plan_rate = plans.hits / plan_lookups if plan_lookups else 0.0
    plan_line = (
        f"  plan    : hit_rate={plan_rate:.2f} entries={len(plans)}"
        + reasons(plans.invalidations)
    )
    sub = mediator.subplan_cache
    sub_line = (
        f"  subplan : hit_rate={sub.stats.hit_rate:.2f} "
        f"entries={sub.entry_count} bytes={sub.total_bytes}"
        + reasons(sub.stats.invalidations)
        + ("" if mediator.use_subplan_cache else " (disabled)")
    )
    return "cache tiers:\n" + "\n".join((cim_line, plan_line, sub_line))


def _stats_backend(path: str, create: bool) -> SqliteBackend:
    """The SQLite file behind ``:save-stats`` / ``:load-stats``."""
    if not path:
        raise ReproError("a statistics file path is required")
    if not create:
        if not os.path.exists(path):
            raise ReproError(f"no statistics file {path!r}")
        # look before opening for real: SqliteBackend creates its table
        # and switches the file to WAL, which a load must not do to a
        # database that is not a statistics store
        if not _has_kv_table(path):
            raise ReproError(f"{path} is not a statistics file")
    try:
        return SqliteBackend(path)
    except sqlite3.DatabaseError as exc:
        raise ReproError(f"{path} is not a statistics file: {exc}") from None


def _has_kv_table(path: str) -> bool:
    """True when the file at ``path`` is a SQLite database holding the
    storage backend's ``kv`` table; the file is opened read-only."""
    try:
        probe = sqlite3.connect(f"{Path(path).resolve().as_uri()}?mode=ro", uri=True)
    except sqlite3.Error:
        return False
    try:
        row = probe.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'kv'"
        ).fetchone()
    except sqlite3.DatabaseError:
        return False
    finally:
        probe.close()
    return row is not None


def _storage_summary(mediator: Mediator) -> str:
    """One-line cache-storage report: backend kind, traffic, warm start."""
    metrics = mediator.metrics
    return (
        f"storage: {storage_kind(mediator)} backend, "
        f"{metrics.value('storage.writes'):.0f} writes / "
        f"{metrics.value('storage.reads'):.0f} reads, "
        f"{metrics.value('storage.bytes_written'):.0f} bytes written, "
        f"{metrics.value('storage.evictions'):.0f} evictions; "
        f"warm start loaded {metrics.value('storage.warm_start.entries_loaded'):.0f}"
    )


def _health_summary(mediator: Mediator) -> str:
    """Per-source health table, or a hint when tracking is off."""
    if mediator.health is None:
        return ("health: not tracked — construct Mediator with "
                "health_policy=HealthPolicy() or pass --health to stats")
    return mediator.health.render()


def _enable_health(mediator: Mediator) -> None:
    """Retrofit source-health tracking onto an already-built mediator."""
    from repro.net.health import HealthPolicy, HealthRegistry
    from repro.net.remote import RemoteDomain

    if mediator.health is not None:
        return
    registry = HealthRegistry(HealthPolicy(), metrics=mediator.metrics)
    mediator.health = registry
    mediator.executor.health = registry
    for endpoint in mediator.registry:
        if isinstance(endpoint, RemoteDomain):
            endpoint.health = registry
            registry.bind(endpoint.domain.name, endpoint.site.name)


def _make_flaky(mediator: Mediator, rate: float) -> None:
    """Inject transient faults at every remote site and turn on retries."""
    from repro.net.faults import FaultInjector, FaultSpec
    from repro.net.policy import RetryPolicy
    from repro.net.remote import RemoteDomain

    for index, endpoint in enumerate(mediator.registry):
        if isinstance(endpoint, RemoteDomain):
            endpoint.faults = FaultInjector(
                FaultSpec(failure_rate=rate, seed=index),
                metrics=mediator.metrics,
            )
            if endpoint.metrics is None:
                endpoint.metrics = mediator.metrics
    mediator.executor.set_policy(RetryPolicy())


def stats_main(argv: list[str], stdout: Optional[IO[str]] = None) -> int:
    """``python -m repro stats`` — run queries, print the metrics report.

    Options: ``--demo NAME`` picks the testbed (default ``rope``),
    ``--cim`` routes the queries through the cache manager, ``--flaky
    RATE`` injects transient faults (per-attempt probability) at every
    site under the default retry policy, ``--jobs N`` executes on the
    parallel engine with N workers, ``--health`` enables source-health
    tracking (breaker state, error rate, latency quantiles), ``--storage
    SPEC`` gives the caches a persistent backend (each tier snapshots
    into it before the report), ``--warm-start`` reloads the previous run's
    persisted cache state first, and the remaining arguments run in
    order: ``?- ...`` strings execute as queries, anything else loads as
    a program file.
    """
    out = stdout if stdout is not None else sys.stdout
    demo = "rope"
    use_cim = False
    health = False
    as_json = False
    flaky: Optional[float] = None
    jobs: Optional[int] = None
    storage: Optional[str] = None
    warm_start = False
    queries: list[str] = []
    argv = list(argv)
    while argv:
        arg = argv.pop(0)
        if arg in ("--demo", "--flaky", "--jobs", "--storage"):
            if not argv:
                raise ReproError(f"{arg} requires a value")
            value = argv.pop(0)
            if arg == "--demo":
                demo = value
            elif arg == "--storage":
                storage = value
            elif arg == "--jobs":
                try:
                    jobs = int(value)
                except ValueError:
                    raise ReproError(
                        f"--jobs requires an integer count, got {value!r}"
                    ) from None
                if jobs < 1:
                    raise ReproError(f"--jobs must be at least 1, got {jobs}")
            else:
                try:
                    flaky = float(value)
                except ValueError:
                    raise ReproError(
                        f"--flaky requires a numeric rate, got {value!r}"
                    ) from None
                if not 0.0 <= flaky <= 1.0:
                    raise ReproError(f"--flaky rate must be in [0, 1], got {flaky}")
        elif arg == "--cim":
            use_cim = True
        elif arg == "--health":
            health = True
        elif arg == "--warm-start":
            warm_start = True
        elif arg == "--json":
            as_json = True
        else:
            queries.append(arg)  # query or program file, handled in order
    demo_kwargs: dict[str, object] = {}
    if storage is not None:
        demo_kwargs["storage"] = storage
    if warm_start:
        demo_kwargs["warm_start"] = True
    mediator = _build_demo(demo, **demo_kwargs)
    if health:
        _enable_health(mediator)
    if flaky is not None:
        _make_flaky(mediator, flaky)
    if jobs is not None:
        # after _make_flaky so the parallel engine inherits the retry policy
        mediator.set_jobs(jobs)
    answers = 0
    ran = 0
    for item in queries:
        if item.startswith("?-"):
            result = mediator.query(item, use_cim=use_cim or None)
            ran += 1
            answers += result.cardinality
        else:
            with open(item) as handle:
                mediator.load_program(handle.read())
    # persist the session's cache state before reporting, so a later
    # --warm-start run (and the CI warm-restart smoke test) can reload it
    mediator.flush_storage()
    if as_json:
        import json

        from repro.report import stats_snapshot

        payload = {"demo": demo, "queries_run": ran, "answers": answers}
        payload.update(stats_snapshot(mediator))
        if health and mediator.health is not None:
            payload["health"] = mediator.health.snapshot(mediator.clock.now_ms)
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        mediator.close()
        return 0
    out.write(f"== repro stats (demo {demo!r}) ==\n")
    out.write(f"queries: {ran} run, {answers} answer(s)\n")
    out.write(f"clock: {mediator.clock.now_ms:.1f} simulated ms\n")
    out.write(f"DCSM:  {mediator.dcsm.observation_count()} observations\n")
    out.write(f"CIM:   {mediator.cim.stats}\n")
    out.write(_cache_summary(mediator) + "\n")
    out.write(_planner_summary(mediator) + "\n")
    out.write(_runtime_summary(mediator) + "\n")
    out.write(_storage_summary(mediator) + "\n")
    out.write(_analysis_summary(mediator) + "\n")
    if health:
        out.write(_health_summary(mediator) + "\n")
    out.write("metrics:\n")
    out.write(mediator.metrics.render() + "\n")
    mediator.close()
    return 0


def serve_main(argv: list[str], stdout: Optional[IO[str]] = None) -> int:
    """``python -m repro serve`` — boot the multi-tenant mediator service.

    One shared mediator (demo testbed + optional persistent storage)
    behind the serving stack of ``docs/SERVING.md``: bounded admission,
    per-tenant weighted-fair dequeueing, async cache warming.  SIGINT or
    ``--max-seconds`` triggers a graceful drain (in-flight queries
    finish, storage flushes and closes).  ``--max-runtime-ms`` arms the
    watchdog's server-side runtime cap, ``--shed-ewma-ms`` enables
    EWMA-triggered load shedding, and ``--no-partial`` refuses partial
    results for every tenant.
    """
    import time as _time

    from repro.serving import AdmissionPolicy, MediatorServer, ServingConfig

    out = stdout if stdout is not None else sys.stdout
    demo = "rope"
    host = "127.0.0.1"
    port = 0
    workers = 4
    jobs: Optional[int] = None
    queue_depth = 64
    tenant_depth = 16
    warm_threshold = 0
    storage: Optional[str] = None
    warm_start = False
    max_seconds: Optional[float] = None
    max_runtime_ms = 0.0
    shed_ewma_ms = 0.0
    no_partial = False
    argv = list(argv)
    while argv:
        arg = argv.pop(0)
        if arg in (
            "--demo", "--host", "--port", "--workers", "--jobs",
            "--queue-depth", "--tenant-depth", "--warm-threshold",
            "--storage", "--max-seconds", "--max-runtime-ms",
            "--shed-ewma-ms",
        ):
            if not argv:
                raise ReproError(f"{arg} requires a value")
            value = argv.pop(0)
            try:
                if arg == "--demo":
                    demo = value
                elif arg == "--host":
                    host = value
                elif arg == "--port":
                    port = int(value)
                elif arg == "--workers":
                    workers = int(value)
                elif arg == "--jobs":
                    jobs = int(value)
                elif arg == "--queue-depth":
                    queue_depth = int(value)
                elif arg == "--tenant-depth":
                    tenant_depth = int(value)
                elif arg == "--warm-threshold":
                    warm_threshold = int(value)
                elif arg == "--storage":
                    storage = value
                elif arg == "--max-runtime-ms":
                    max_runtime_ms = float(value)
                elif arg == "--shed-ewma-ms":
                    shed_ewma_ms = float(value)
                else:
                    max_seconds = float(value)
            except ValueError:
                raise ReproError(
                    f"{arg} requires a numeric value, got {value!r}"
                ) from None
        elif arg == "--warm-start":
            warm_start = True
        elif arg == "--no-partial":
            no_partial = True
        else:
            raise ReproError(f"unknown serve option {arg!r}")
    demo_kwargs: dict[str, object] = {}
    if storage is not None:
        demo_kwargs["storage"] = storage
    if warm_start:
        demo_kwargs["warm_start"] = True
    mediator = _build_demo(demo, **demo_kwargs)
    if jobs is not None and jobs > 1:
        mediator.set_jobs(jobs)
    config = ServingConfig(
        host=host,
        port=port,
        workers=workers,
        warm_threshold=warm_threshold,
        max_runtime_ms=max_runtime_ms,
        allow_partial=not no_partial,
        admission=AdmissionPolicy(
            max_queue_depth=queue_depth,
            max_tenant_depth=tenant_depth,
            shed_ewma_ms=shed_ewma_ms,
        ),
    )
    server = MediatorServer(mediator, config=config).start()
    bound_host, bound_port = server.address
    out.write(f"serving demo {demo!r} on {bound_host}:{bound_port} "
              f"({workers} worker(s), queue depth {queue_depth})\n")
    out.flush()
    try:
        if max_seconds is not None:
            _time.sleep(max_seconds)
        else:
            while True:
                _time.sleep(3600.0)
    except KeyboardInterrupt:
        out.write("draining...\n")
        out.flush()
    summary = server.drain()
    out.write(
        "drained: "
        f"{summary['completed']:.0f} completed, "
        f"{summary['rejected']:.0f} rejected, "
        f"{summary['cancelled']:.0f} cancelled, "
        f"{summary['deadline_exceeded']:.0f} deadline-exceeded, "
        f"{summary['errors']:.0f} errors, "
        f"queue high-watermark {summary['queue_high_watermark']:.0f}, "
        f"{summary['dropped_in_flight']:.0f} dropped in flight, "
        f"{summary['stuck_tickets']:.0f} stuck tickets\n"
    )
    return 1 if summary["dropped_in_flight"] or summary["stuck_tickets"] else 0


def load_main(argv: list[str], stdout: Optional[IO[str]] = None) -> int:
    """``python -m repro load`` — open-loop load against a running server.

    ``--tenant`` (repeatable) names the tenants round-robined across the
    requests; ``--query`` (repeatable) the query texts cycled through
    (default: the rope demo's ``?- actors(A).``).  ``--rate`` sets the
    aggregate open-loop send rate in QPS (omit for max throughput).
    ``--deadline-ms`` stamps every request with an end-to-end deadline.
    ``--json`` prints the full machine-readable report.
    """
    import json

    from repro.serving import run_load

    out = stdout if stdout is not None else sys.stdout
    host = "127.0.0.1"
    port: Optional[int] = None
    tenants: list[str] = []
    query_texts: list[str] = []
    requests = 50
    rate: Optional[float] = None
    connections = 4
    deadline_ms: Optional[float] = None
    as_json = False
    argv = list(argv)
    while argv:
        arg = argv.pop(0)
        if arg in (
            "--host", "--port", "--tenant", "--query", "--requests",
            "--rate", "--connections", "--deadline-ms",
        ):
            if not argv:
                raise ReproError(f"{arg} requires a value")
            value = argv.pop(0)
            try:
                if arg == "--host":
                    host = value
                elif arg == "--port":
                    port = int(value)
                elif arg == "--tenant":
                    tenants.append(value)
                elif arg == "--query":
                    query_texts.append(value)
                elif arg == "--requests":
                    requests = int(value)
                elif arg == "--rate":
                    rate = float(value)
                elif arg == "--deadline-ms":
                    deadline_ms = float(value)
                else:
                    connections = int(value)
            except ValueError:
                raise ReproError(
                    f"{arg} requires a numeric value, got {value!r}"
                ) from None
        elif arg == "--json":
            as_json = True
        else:
            raise ReproError(f"unknown load option {arg!r}")
    if port is None:
        raise ReproError("--port is required (the server prints its port)")
    if not tenants:
        tenants = ["default"]
    if not query_texts:
        query_texts = ["?- actors(A)."]
    plan = [
        (tenants[i % len(tenants)], query_texts[i % len(query_texts)])
        for i in range(requests)
    ]
    report = run_load(
        host, port, plan, rate_qps=rate, connections=connections,
        deadline_ms=deadline_ms,
    )
    if as_json:
        out.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        p50 = report.percentile(50)
        p99 = report.percentile(99)
        out.write(
            f"{report.sent} sent: {report.ok} ok, {report.rejected} rejected, "
            f"{report.cancelled} cancelled, "
            f"{report.deadline_exceeded} deadline-exceeded, "
            f"{report.errors} errors in {report.wall_s:.2f}s "
            f"({report.qps:.1f} QPS"
            + (
                f", p50 {p50:.1f}ms, p99 {p99:.1f}ms"
                if p50 is not None and p99 is not None
                else ""
            )
            + ")\n"
        )
    return 0 if report.errors == 0 else 1


def lint_main(argv: list[str], stdout: Optional[IO[str]] = None) -> int:
    """``python -m repro lint`` — static analysis, exit 0/1/2.

    Options: ``--demo NAME`` supplies the domain registry and its
    invariants (registration checks are skipped without it), ``--json``
    renders the machine-readable report, ``--query "?- ..."``
    (repeatable) adds analysis roots, ``--invariants FILE`` (repeatable)
    lints extra invariants, and each remaining argument is a program
    file.  With a demo and no files, the demo's own program is analyzed.
    Exit status: 0 clean, 1 warnings only, 2 errors (or a load failure).
    """
    from repro.analysis import analyze_program
    from repro.core.parser import parse_invariants, parse_program, parse_query

    out = stdout if stdout is not None else sys.stdout
    demo: Optional[str] = None
    as_json = False
    query_texts: list[str] = []
    invariant_files: list[str] = []
    files: list[str] = []
    argv = list(argv)
    while argv:
        arg = argv.pop(0)
        if arg in ("--demo", "--query", "--invariants"):
            if not argv:
                raise ReproError(f"{arg} requires a value")
            value = argv.pop(0)
            if arg == "--demo":
                demo = value
            elif arg == "--query":
                query_texts.append(value)
            else:
                invariant_files.append(value)
        elif arg == "--json":
            as_json = True
        elif arg.startswith("--"):
            raise ReproError(f"unknown lint option {arg!r}")
        else:
            files.append(arg)

    registry = None
    invariants: list = []
    program = None
    if demo is not None:
        mediator = _build_demo(demo)
        registry = mediator.registry
        invariants.extend(mediator.cim.invariants)
        if not files:
            program = mediator.program
    if program is None:
        from repro.core.model import Program

        program = Program()
    for path in files:
        with open(path) as handle:
            for rule in parse_program(handle.read()):
                program.add(rule)
    for path in invariant_files:
        with open(path) as handle:
            invariants.extend(parse_invariants(handle.read()))
    queries = tuple(parse_query(text) for text in query_texts)
    report = analyze_program(
        program, registry=registry, invariants=invariants, queries=queries
    )
    out.write(report.render(as_json=as_json) + "\n")
    return report.exit_code


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``python -m repro [stats|lint] [--demo NAME] [...]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "stats":
            return stats_main(argv[1:])
        if argv and argv[0] == "lint":
            return lint_main(argv[1:])
        if argv and argv[0] == "serve":
            return serve_main(argv[1:])
        if argv and argv[0] == "load":
            return load_main(argv[1:])
        shell = MediatorShell()
        while argv:
            arg = argv.pop(0)
            if arg == "--demo":
                if not argv:
                    raise ReproError("--demo requires a value")
                shell.mediator = _build_demo(argv.pop(0))
            else:
                with open(arg) as handle:
                    shell.mediator.load_program(handle.read())
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return shell.run()
