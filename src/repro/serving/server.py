"""The long-running multi-tenant mediator service.

One :class:`MediatorServer` serves many concurrent client sessions over
a *shared* :class:`~repro.core.mediator.Mediator` — shared plan cache,
CIM, subplan cache, DCSM, and health registry — which is the whole
point: every query a tenant runs warms the caches every other tenant
hits.  (``isolate_tenants=True`` flips this into the control
configuration: each tenant gets its own mediator from a factory, so the
benchmark can price exactly what sharing buys.)

Threads, and what each does:

* the **acceptor** blocks on ``accept()`` and hands each connection a
  reader thread;
* a **reader** per connection parses newline-delimited JSON requests,
  answers ``ping``/``stats`` inline, and pushes ``query`` requests
  through the admission controller — writing the ``rejected``
  backpressure response itself when admission refuses;
* ``workers`` **query workers** pull tickets in weighted-fair order and
  execute them against the tenant's mediator;
* the **watchdog** reaps queued tickets whose ``deadline_ms`` expired
  (completed as ``rejected``/``deadline_exceeded``, never executed) and
  force-cancels running requests past their deadline or past the
  server-side ``max_runtime_ms`` ceiling;
* the optional **cache warmer** (``warm_threshold > 0``) digests the
  observation queue and pre-dials hot templates off the request path.

Every query request carries a :class:`~repro.cancellation.CancellationToken`
through a per-connection *lifecycle registry* (state machine
``queued → running → done``), which is what makes the wire-level
``cancel`` op, client-disconnect reaping, and the watchdog all converge
on one code path: fire the token (or pull the still-queued ticket), and
the worker surfaces exactly one terminal response —
``cancelled`` / ``deadline_exceeded`` — for the request.  A request is
never both executed and rejected.

Graceful drain (``drain()``): admission flips to rejecting with reason
``draining``, queued and in-flight queries all complete and their
responses are written, the warmer finishes, per-mediator storage is
flushed and closed (when the server owns the mediators), and only then
do the sockets close.  No admitted request is ever dropped.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cancellation import (
    REASON_CLIENT_CANCEL,
    REASON_DEADLINE,
    REASON_DISCONNECT,
    REASON_MAX_RUNTIME,
    CancellationToken,
)
from repro.core.mediator import Mediator
from repro.errors import ExecutionCancelledError, ReproError
from repro.metrics import MetricsRegistry
from repro.serving.admission import (
    REASON_DEADLINE as REASON_DEADLINE_REJECTED,
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    Ticket,
)
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    cancel_ack_response,
    cancelled_response,
    deadline_exceeded_response,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    pong_response,
    rejected_response,
)
from repro.serving.warmer import CacheWarmer


@dataclass(frozen=True)
class ServingConfig:
    """Everything a server needs beyond the mediator itself."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off server.address
    workers: int = 4
    use_cim: bool = True
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: 0 disables the warmer; N warms a template once seen N times
    warm_threshold: int = 0
    warm_capacity: int = 256
    #: per-tenant mediators (the isolated-cache control configuration)
    isolate_tenants: bool = False
    #: flush + close the mediators' storage on drain (the server owns
    #: mediators it built from a factory; a caller-supplied mediator is
    #: closed only when this is set)
    close_mediators: bool = True
    drain_timeout_s: float = 30.0
    #: server-side ceiling on one request's wall-clock runtime; the
    #: watchdog force-cancels anything running longer (0 disables)
    max_runtime_ms: float = 0.0
    #: default for tenants without a ``partial_tenants`` entry: return
    #: partial results (status ``partial``) instead of an error
    allow_partial: bool = True
    #: tenant name → whether that tenant accepts partial results
    partial_tenants: dict[str, bool] = field(default_factory=dict)
    #: watchdog idle tick; deadline-bounded waits wake it sooner
    watchdog_interval_s: float = 0.05

    def partial_allowed(self, tenant: str) -> bool:
        return self.partial_tenants.get(tenant, self.allow_partial)


@dataclass
class _Connection:
    """One client socket plus its serialized writer."""

    sock: socket.socket
    write_lock: threading.Lock = field(default_factory=threading.Lock)
    closed: bool = False

    def send(self, message: dict[str, Any]) -> bool:
        payload = encode_message(message)
        with self.write_lock:
            if self.closed:
                return False
            try:
                self.sock.sendall(payload)
                return True
            except OSError:
                self.closed = True
                return False

    def close(self) -> None:
        with self.write_lock:
            self.closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


@dataclass
class _Lifecycle:
    """One query request's lifecycle record: ``queued → running → done``.

    Keyed by ``(id(connection), request.id)`` in the server registry, so
    a ``cancel`` op, a disconnect, and the watchdog can all find the
    request they must stop — and duplicate in-flight ids on one
    connection are refused at parse time.
    """

    request: Request
    connection: _Connection
    token: CancellationToken
    deadline_at: Optional[float] = None
    ticket: Optional[Ticket] = None
    state: str = "queued"
    #: ``time.monotonic`` when a worker picked the request up
    started_at: Optional[float] = None
    #: which watchdog rule fired (so the tick loop counts it only once)
    watchdog_reason: Optional[str] = None
    #: ``time.monotonic`` when a canceller fired the token — the
    #: cancel-to-stop latency metric measures from here
    cancel_fired_at: Optional[float] = None


@dataclass
class _QueryJob:
    """The admission-queue payload for one query request."""

    request: Request
    connection: _Connection
    lifecycle: Optional["_Lifecycle"] = None


class MediatorServer:
    """A concurrent multi-tenant query service over shared caches."""

    def __init__(
        self,
        mediator: Optional[Mediator] = None,
        *,
        mediator_factory: Optional[Callable[[], Mediator]] = None,
        config: Optional[ServingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else ServingConfig()
        if self.config.workers < 1:
            raise ReproError("the server needs at least 1 worker")
        if mediator is None and mediator_factory is None:
            raise ReproError("pass a mediator or a mediator_factory")
        if self.config.isolate_tenants and mediator_factory is None:
            raise ReproError("isolate_tenants requires a mediator_factory")
        self._shared_mediator = mediator
        self._mediator_factory = mediator_factory
        if self._shared_mediator is None and not self.config.isolate_tenants:
            assert mediator_factory is not None
            self._shared_mediator = mediator_factory()
        #: one registry for serving.* regardless of tenant isolation —
        #: shared-mediator servers reuse the mediator's own registry so
        #: ``repro stats`` shows serving and cache counters side by side
        if metrics is not None:
            self.metrics = metrics
        elif self._shared_mediator is not None:
            self.metrics = self._shared_mediator.metrics
        else:
            self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            self.config.admission,
            metrics=self.metrics,
            workers=self.config.workers,
            on_expired=self._on_ticket_expired,
        )
        self.warmer: Optional[CacheWarmer] = None
        if self.config.warm_threshold > 0:
            self.warmer = CacheWarmer(
                self._warm_one,
                threshold=self.config.warm_threshold,
                capacity=self.config.warm_capacity,
                metrics=self.metrics,
            )
        self._tenant_mediators: dict[str, Mediator] = {}
        self._tenant_lock = threading.Lock()
        self._lifecycles: dict[tuple[int, str], _Lifecycle] = {}
        self._lifecycle_lock = threading.Lock()
        #: fired at drain so in-flight warm queries stop dialing sources
        self._warm_token = CancellationToken()
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._connections: list[_Connection] = []
        self._connections_lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); the port is real even for ``port=0``."""
        if self._listener is None:
            raise ReproError("server is not started")
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    def start(self) -> "MediatorServer":
        if self._started:
            raise ReproError("server already started")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        watchdog = threading.Thread(
            target=self._watchdog_loop, name="repro-serve-watchdog", daemon=True
        )
        watchdog.start()
        self._threads.append(watchdog)
        if self.warmer is not None:
            self.warmer.start()
        return self

    def __enter__(self) -> "MediatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()

    def drain(self, timeout: Optional[float] = None) -> dict[str, float]:
        """Graceful shutdown: stop admission, finish in-flight work,
        flush and close storage, then close the sockets.

        Returns a summary with the drain outcome; ``dropped_in_flight``
        is 0 unless the drain timed out with work still running."""
        if self._drained.is_set():
            return self._drain_summary(dropped=0)
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        self._draining.set()
        self.admission.begin_drain()
        drained = self.admission.wait_drained(timeout=timeout)
        dropped = 0 if drained else self.admission.depth + self.admission.in_flight
        # stop in-flight warm queries mid-wave; client work is already done
        self._warm_token.cancel("draining")
        if self.warmer is not None:
            self.warmer.stop(drain=False, timeout=5.0)
        self._stop.set()
        if self.config.close_mediators:
            for mediator in self._all_mediators():
                try:
                    mediator.close()
                except ReproError:
                    pass
        # closing the listener unblocks accept(); closing connections
        # unblocks the readers.  close() alone does not reliably wake a
        # thread already blocked in accept(), so shut the socket down
        # first and poke it with a throwaway connection as a fallback —
        # otherwise the acceptor thread leaks past drain
        if self._listener is not None:
            try:
                address = self._listener.getsockname()
            except OSError:
                address = None
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            if address is not None:
                try:
                    socket.create_connection(
                        (address[0], address[1]), timeout=0.2
                    ).close()
                except OSError:
                    pass
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._drained.set()
        if self.metrics is not None and dropped:
            self.metrics.inc("serving.drain.dropped_in_flight", float(dropped))
        return self._drain_summary(dropped=dropped)

    def _drain_summary(self, dropped: int) -> dict[str, float]:
        with self._lifecycle_lock:
            stuck = len(self._lifecycles)
        return {
            "completed": self.metrics.value("serving.completed"),
            "rejected": (
                self.metrics.value("serving.rejected.queue_full")
                + self.metrics.value("serving.rejected.tenant_quota")
                + self.metrics.value("serving.rejected.draining")
                + self.metrics.value("serving.rejected.shed")
                + self.metrics.value("serving.rejected.deadline_exceeded")
            ),
            "errors": self.metrics.value("serving.errors"),
            "cancelled": self.metrics.value("serving.cancelled"),
            "deadline_exceeded": self.metrics.value("serving.deadline.exceeded"),
            "partial": self.metrics.value("serving.partial.returned"),
            "queue_high_watermark": self.metrics.value(
                "serving.queue.high_watermark"
            ),
            "dropped_in_flight": float(dropped),
            "stuck_tickets": float(stuck + self.admission.depth),
        }

    # -- tenant → mediator ----------------------------------------------------

    def mediator_for(self, tenant: str) -> Mediator:
        """The mediator serving ``tenant`` (shared unless isolating)."""
        if not self.config.isolate_tenants:
            assert self._shared_mediator is not None
            return self._shared_mediator
        with self._tenant_lock:
            mediator = self._tenant_mediators.get(tenant)
            if mediator is None:
                assert self._mediator_factory is not None
                mediator = self._mediator_factory()
                self._tenant_mediators[tenant] = mediator
            return mediator

    def _all_mediators(self) -> list[Mediator]:
        with self._tenant_lock:
            mediators = list(self._tenant_mediators.values())
        if self._shared_mediator is not None:
            mediators.append(self._shared_mediator)
        return mediators

    # -- accept / read -------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed during drain
            # responses are small single writes: without TCP_NODELAY a
            # reply waits on Nagle's algorithm for the client's next ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock=sock)
            with self._connections_lock:
                self._connections.append(connection)
            reader = threading.Thread(
                target=self._read_loop,
                args=(connection,),
                name="repro-serve-reader",
                daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _read_loop(self, connection: _Connection) -> None:
        buffer = b""
        sock = connection.sock
        try:
            while not self._stop.is_set():
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        self._handle_line(connection, line)
                if len(buffer) > MAX_LINE_BYTES:
                    connection.send(
                        error_response(
                            "", "ProtocolError",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                    break
        finally:
            connection.close()
            self._reap_connection(connection)

    def _reap_connection(self, connection: _Connection) -> None:
        """The client is gone: cancel its running work and discard its
        queued work — nobody is left to read the responses."""
        if self._draining.is_set():
            # graceful drain closes connections itself, after in-flight
            # work completed and its responses were written
            return
        with self._lifecycle_lock:
            victims = [
                lifecycle
                for (conn_id, _), lifecycle in self._lifecycles.items()
                if conn_id == id(connection)
            ]
        for lifecycle in victims:
            if self.metrics is not None:
                self.metrics.inc("serving.cancel.disconnect")
            if lifecycle.ticket is not None and self.admission.remove(
                lifecycle.ticket
            ):
                # still queued: never ran, nothing to write, just forget it
                self._finish_lifecycle(lifecycle)
            else:
                lifecycle.cancel_fired_at = time.monotonic()
                lifecycle.token.cancel(REASON_DISCONNECT)

    def _handle_line(self, connection: _Connection, line: bytes) -> None:
        if self.metrics is not None:
            self.metrics.inc("serving.requests")
        try:
            request = Request.parse(decode_message(line))
        except ProtocolError as exc:
            connection.send(error_response("", "ProtocolError", str(exc)))
            return
        if request.op == "ping":
            connection.send(pong_response(request))
            return
        if request.op == "stats":
            connection.send(self._stats_response(request))
            return
        if request.op == "cancel":
            self._handle_cancel(connection, request)
            return
        # op == "query": through the lifecycle registry and admission
        deadline_at = (
            time.monotonic() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        lifecycle = _Lifecycle(
            request=request,
            connection=connection,
            token=CancellationToken(),
            deadline_at=deadline_at,
        )
        key = (id(connection), request.id)
        with self._lifecycle_lock:
            if key in self._lifecycles:
                connection.send(
                    error_response(
                        request.id,
                        "ProtocolError",
                        f"request id {request.id!r} is already in flight"
                        " on this connection",
                        request.tenant,
                    )
                )
                return
            self._lifecycles[key] = lifecycle
        try:
            job = _QueryJob(
                request=request, connection=connection, lifecycle=lifecycle
            )
            lifecycle.ticket = self.admission.submit(
                request.tenant,
                job,
                request_id=request.id,
                deadline_at=deadline_at,
            )
        except AdmissionRejected as exc:
            self._finish_lifecycle(lifecycle)
            connection.send(
                rejected_response(request, exc.reason, exc.retry_after_ms)
            )
            return
        if self.warmer is not None:
            scope = request.tenant if self.config.isolate_tenants else ""
            assert request.query is not None
            self.warmer.observe(scope, request.query)

    def _handle_cancel(self, connection: _Connection, request: Request) -> None:
        """A wire ``cancel`` op: stop the target request if we still hold
        it; unknown or already-finished targets get a harmless ack."""
        if self.metrics is not None:
            self.metrics.inc("serving.cancel.requests")
        assert request.target is not None
        with self._lifecycle_lock:
            lifecycle = self._lifecycles.get((id(connection), request.target))
        if lifecycle is None:
            connection.send(cancel_ack_response(request, False))
            return
        if lifecycle.ticket is not None and self.admission.remove(
            lifecycle.ticket
        ):
            # still queued: it will never run, so this is the one place
            # that writes its terminal response
            self._finish_lifecycle(lifecycle)
            if self.metrics is not None:
                self.metrics.inc("serving.cancelled")
            connection.send(
                cancelled_response(lifecycle.request, REASON_CLIENT_CANCEL)
            )
            connection.send(cancel_ack_response(request, True))
            return
        # running (or about to run): fire the token; the worker writes
        # the ``cancelled`` response when the run unwinds
        lifecycle.cancel_fired_at = time.monotonic()
        lifecycle.token.cancel(REASON_CLIENT_CANCEL)
        if self.metrics is not None:
            self.metrics.inc("serving.cancel.inflight")
        connection.send(cancel_ack_response(request, True))

    def _finish_lifecycle(self, lifecycle: _Lifecycle) -> None:
        lifecycle.state = "done"
        key = (id(lifecycle.connection), lifecycle.request.id)
        with self._lifecycle_lock:
            existing = self._lifecycles.get(key)
            if existing is lifecycle:
                del self._lifecycles[key]

    def _on_ticket_expired(self, ticket: Ticket) -> None:
        """A queued ticket's deadline passed: complete it as rejected
        (reason ``deadline_exceeded``) without ever executing it."""
        job: _QueryJob = ticket.payload
        if job.lifecycle is not None:
            self._finish_lifecycle(job.lifecycle)
        job.connection.send(
            rejected_response(
                job.request,
                REASON_DEADLINE_REJECTED,
                self.admission.retry_after_hint(),
            )
        )
        if self.metrics is not None:
            self.metrics.inc("serving.rejected.deadline_exceeded")
            self.metrics.inc(f"serving.tenant.{job.request.tenant}.rejected")

    def _stats_response(self, request: Request) -> dict[str, Any]:
        from repro.report import stats_snapshot

        mediator = self.mediator_for(request.tenant)
        snapshot = stats_snapshot(
            mediator, include_metrics=False, admission=self.admission
        )
        snapshot["queue_depth"] = self.admission.depth
        snapshot["in_flight"] = self.admission.in_flight
        snapshot["draining"] = self.admission.draining
        snapshot["ewma_service_ms"] = self.admission.ewma_service_ms
        snapshot["retry_after_ms"] = self.admission.retry_after_hint()
        snapshot["shedding"] = self.admission.shedding
        snapshot["lifecycle"] = {
            "completed": self.metrics.value("serving.completed"),
            "cancelled": self.metrics.value("serving.cancelled"),
            "deadline_exceeded": self.metrics.value("serving.deadline.exceeded"),
            "queue_expired": self.metrics.value("serving.deadline.queue_expired"),
            "partial": self.metrics.value("serving.partial.returned"),
            "errors": self.metrics.value("serving.errors"),
            "shed": self.metrics.value("serving.rejected.shed"),
        }
        return {"id": request.id, "status": "ok", "stats": snapshot}

    # -- watchdog ------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Reap expired queued tickets and force-cancel overrunning work.

        The tick adapts: it sleeps until the nearest known deadline (or
        the idle interval), so cancellation latency stays well under the
        configured tick even when deadlines land between ticks."""
        max_runtime_s = self.config.max_runtime_ms / 1000.0
        while not self._stop.is_set():
            now = time.monotonic()
            self.admission.reap_expired(now)
            with self._lifecycle_lock:
                running = [
                    lifecycle
                    for lifecycle in self._lifecycles.values()
                    if lifecycle.state == "running"
                ]
            next_event: Optional[float] = self.admission.earliest_deadline()
            for lifecycle in running:
                if lifecycle.watchdog_reason is not None:
                    continue
                fired: Optional[str] = None
                if (
                    lifecycle.deadline_at is not None
                    and now >= lifecycle.deadline_at
                ):
                    fired = REASON_DEADLINE
                elif (
                    max_runtime_s > 0
                    and lifecycle.started_at is not None
                    and now - lifecycle.started_at >= max_runtime_s
                ):
                    fired = REASON_MAX_RUNTIME
                if fired is not None:
                    lifecycle.watchdog_reason = fired
                    lifecycle.cancel_fired_at = now
                    lifecycle.token.cancel(fired)
                    if self.metrics is not None:
                        self.metrics.inc("serving.cancel.watchdog")
                    continue
                candidates = []
                if lifecycle.deadline_at is not None:
                    candidates.append(lifecycle.deadline_at)
                if max_runtime_s > 0 and lifecycle.started_at is not None:
                    candidates.append(lifecycle.started_at + max_runtime_s)
                for candidate in candidates:
                    if next_event is None or candidate < next_event:
                        next_event = candidate
            tick = self.config.watchdog_interval_s
            if next_event is not None:
                tick = min(tick, max(0.005, next_event - time.monotonic()))
            self._stop.wait(tick)

    # -- query workers -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self.admission.next(timeout=0.05)
            if ticket is None:
                if self._stop.is_set():
                    return
                if self._draining.is_set() and self.admission.depth == 0:
                    # drain: nothing queued and nothing will be admitted
                    return
                continue
            try:
                self._execute(ticket)
            finally:
                self.admission.task_done(ticket)

    def _execute(self, ticket: Ticket) -> None:
        job: _QueryJob = ticket.payload
        request = job.request
        lifecycle = job.lifecycle
        token = lifecycle.token if lifecycle is not None else None
        if lifecycle is not None:
            lifecycle.state = "running"
            lifecycle.started_at = time.monotonic()
        mediator = self.mediator_for(request.tenant)
        started = time.perf_counter()
        sim_start = mediator.clock.now_ms
        try:
            assert request.query is not None
            if token is not None:
                token.raise_if_cancelled("before execution")
            result = mediator.query(
                request.query,
                mode=request.mode,
                use_cim=True if self.config.use_cim else None,
                max_answers=request.max_answers,
                max_time_ms=request.deadline_ms,
                cancel_token=token,
            )
        except ExecutionCancelledError:
            wall_ms = (time.perf_counter() - started) * 1000.0
            self._finish_cancelled(job, ticket, wall_ms)
            return
        except Exception as exc:  # planning/parse/execution errors → response
            if lifecycle is not None:
                self._finish_lifecycle(lifecycle)
            if self.metrics is not None:
                self.metrics.inc("serving.errors")
                self.metrics.inc(f"serving.tenant.{request.tenant}.errors")
            job.connection.send(
                error_response(
                    request.id, type(exc).__name__, str(exc), request.tenant
                )
            )
            return
        wall_ms = (time.perf_counter() - started) * 1000.0
        self.admission.record_service_time(wall_ms)
        if lifecycle is not None:
            self._finish_lifecycle(lifecycle)
        if (
            lifecycle is not None
            and lifecycle.deadline_at is not None
            and time.monotonic() >= lifecycle.deadline_at
        ):
            # the run unwound (simulated-time budget, truncation, or a
            # photo finish with the watchdog) but the client's wall-clock
            # patience is spent — a late answer is a missed deadline
            if self.metrics is not None:
                self.metrics.inc("serving.deadline.exceeded")
            job.connection.send(deadline_exceeded_response(request, wall_ms))
            return
        completeness = result.completeness
        status = completeness.status if completeness is not None else (
            "partial" if result.missing_sources else "complete"
        )
        missing = tuple(
            completeness.missing_sources
            if completeness is not None
            else result.missing_sources
        )
        if status == "partial" and not self.config.partial_allowed(
            request.tenant
        ):
            # this tenant wants all-or-nothing: degrade to an error
            if self.metrics is not None:
                self.metrics.inc("serving.partial.denied")
                self.metrics.inc("serving.errors")
                self.metrics.inc(f"serving.tenant.{request.tenant}.errors")
            job.connection.send(
                error_response(
                    request.id,
                    "PartialResult",
                    "partial result denied for tenant"
                    f" (missing sources: {', '.join(sorted(missing))})",
                    request.tenant,
                )
            )
            return
        if self.metrics is not None:
            self.metrics.inc("serving.completed")
            self.metrics.inc(f"serving.tenant.{request.tenant}.completed")
            if status == "partial":
                self.metrics.inc("serving.partial.returned")
            self.metrics.observe("serving.latency_ms", wall_ms)
            self.metrics.observe(
                "serving.total_latency_ms", wall_ms + ticket.queue_wait_ms
            )
        job.connection.send(
            ok_response(
                request,
                answers=result.answers,
                variables=result.variables,
                cardinality=result.cardinality,
                complete=result.complete,
                t_wall_ms=wall_ms,
                t_sim_ms=mediator.clock.now_ms - sim_start,
                queue_wait_ms=ticket.queue_wait_ms,
                completeness=status,
                missing_sources=missing,
            )
        )

    def _finish_cancelled(
        self, job: _QueryJob, ticket: Ticket, wall_ms: float
    ) -> None:
        """Map a cancelled run's token reason onto the wire response."""
        request = job.request
        lifecycle = job.lifecycle
        reason = (
            lifecycle.token.reason if lifecycle is not None else None
        ) or REASON_CLIENT_CANCEL
        if lifecycle is not None:
            self._finish_lifecycle(lifecycle)
        self.admission.record_service_time(wall_ms)
        if (
            self.metrics is not None
            and lifecycle is not None
            and lifecycle.cancel_fired_at is not None
        ):
            self.metrics.observe(
                "serving.cancel.latency_ms",
                (time.monotonic() - lifecycle.cancel_fired_at) * 1000.0,
            )
        if reason == REASON_DEADLINE:
            if self.metrics is not None:
                self.metrics.inc("serving.deadline.exceeded")
            job.connection.send(deadline_exceeded_response(request, wall_ms))
            return
        if self.metrics is not None:
            self.metrics.inc("serving.cancelled")
        if reason == REASON_DISCONNECT:
            return  # nobody left to read the response
        job.connection.send(cancelled_response(request, reason))

    # -- warm-up execution ----------------------------------------------------

    def _warm_one(self, tenant_scope: str, query_text: str) -> None:
        """Run one representative query to pre-dial the cache tiers.

        Carries the server's warm token so a drain stops an in-flight
        warm query mid-wave instead of holding up shutdown."""
        mediator = self.mediator_for(tenant_scope or "default")
        mediator.query(
            query_text,
            use_cim=True if self.config.use_cim else None,
            cancel_token=self._warm_token,
        )
