"""Client side of the serving protocol, plus the open-loop load generator.

:class:`ServingClient` pipelines requests over one connection: a writer
(the caller's thread) sends newline-delimited JSON under a lock, and a
reader thread correlates responses back to per-request events by ``id``.
Out-of-order responses are expected — the server's weighted-fair queue
makes no FIFO promise across tenants.

:func:`run_load` is the *open-loop* driver behind ``repro load`` and the
serving benchmark: requests are issued on a fixed schedule regardless of
how fast responses come back, which is the only way to observe real
backpressure — a closed-loop client slows down with the server and can
never overflow the admission queue.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ReproError
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
)


class _PendingResponse:
    """One in-flight request's completion latch."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[dict[str, Any]] = None


class ServingClient:
    """A pipelined newline-delimited-JSON client for the mediator server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout_s: float = 30.0,
    ):
        self.tenant = tenant
        self.timeout_s = timeout_s
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        # requests are small single writes; don't let Nagle hold them back
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[str, _PendingResponse] = {}
        self._seq = 0
        self._closed = False
        #: set by the reader on EOF/reset — requests after death fail
        #: fast instead of waiting out their full timeout
        self._dead = threading.Event()
        self._reader_error: Optional[str] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-serve-client-reader", daemon=True
        )
        self._reader.start()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)
        self._fail_pending("connection closed")

    # -- request/response ----------------------------------------------------

    @property
    def dead(self) -> bool:
        """True once the reader saw EOF/reset (the connection is gone)."""
        return self._dead.is_set()

    def _raise_if_dead(self) -> None:
        if self._dead.is_set():
            reason = self._reader_error or "connection closed by server"
            raise ReproError(f"connection is dead: {reason}")

    def request(
        self, message: dict[str, Any], timeout_s: Optional[float] = None
    ) -> dict[str, Any]:
        """Send one message and block for its correlated response."""
        return self.wait(self.send(message), timeout_s=timeout_s)

    def send(self, message: dict[str, Any]) -> str:
        """Fire a request without waiting; returns the id for :meth:`wait`."""
        if self._closed:
            raise ReproError("client is closed")
        self._raise_if_dead()
        message = dict(message)
        message.setdefault("tenant", self.tenant)
        if "id" not in message:
            with self._pending_lock:
                self._seq += 1
                message["id"] = f"{self.tenant}-{self._seq}"
        pending = _PendingResponse()
        with self._pending_lock:
            # the reader may have died between the check above and here;
            # registering against a dead connection would wait out the
            # full timeout for a response that can never arrive
            if self._dead.is_set():
                reason = self._reader_error or "connection closed by server"
                raise ReproError(f"connection is dead: {reason}")
            self._pending[message["id"]] = pending
        try:
            with self._write_lock:
                self._sock.sendall(encode_message(message))
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(message["id"], None)
            raise ReproError(f"send failed: {exc}") from None
        return str(message["id"])

    def wait(
        self, request_id: str, timeout_s: Optional[float] = None
    ) -> dict[str, Any]:
        """Block for the response to a :meth:`send`-issued request.

        The pending entry stays registered until *this* call collects it
        (the reader completes it in place), so a response that lands
        between :meth:`send` and :meth:`wait` is never dropped."""
        with self._pending_lock:
            pending = self._pending.get(request_id)
        if pending is None:
            raise ReproError(f"no pending request {request_id!r}")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        completed = pending.event.wait(timeout)
        with self._pending_lock:
            self._pending.pop(request_id, None)
        if not completed:
            raise ReproError(
                f"timed out after {timeout:.1f}s waiting for response "
                f"to {request_id}"
                + (f" (reader: {self._reader_error})" if self._reader_error else "")
            )
        assert pending.response is not None
        return pending.response

    def query(
        self,
        query: str,
        *,
        mode: str = "all",
        max_answers: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> dict[str, Any]:
        message: dict[str, Any] = {"op": "query", "query": query, "mode": mode}
        if max_answers is not None:
            message["max_answers"] = max_answers
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self.request(message, timeout_s=timeout_s)

    def cancel(self, target_id: str) -> dict[str, Any]:
        """Cancel an in-flight request by id; returns the server's ack."""
        return self.request({"op": "cancel", "target": target_id})

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    # -- reader --------------------------------------------------------------

    def _read_loop(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self._sock.recv(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        self._dispatch(line)
                if len(buffer) > MAX_LINE_BYTES:
                    self._reader_error = "response line too long"
                    break
        except OSError as exc:
            if not self._closed:
                self._reader_error = str(exc)
        finally:
            self._fail_pending(self._reader_error or "connection closed")

    def _dispatch(self, line: bytes) -> None:
        try:
            response = decode_message(line)
        except ProtocolError as exc:
            self._reader_error = str(exc)
            return
        req_id = response.get("id")
        with self._pending_lock:
            # complete in place — wait() collects (and removes) the entry
            pending = self._pending.get(req_id)
        if pending is not None:
            pending.response = response
            pending.event.set()

    def _fail_pending(self, reason: str) -> None:
        # mark the connection dead *before* draining the table: a racing
        # send() either sees the flag and fails fast, or registers in
        # time to be drained here — never a silent full-timeout wait
        self._dead.set()
        with self._pending_lock:
            pending = list(self._pending.values())
        # complete in place (don't clear the table): a waiter that has
        # sent but not yet called wait() must still find its entry and
        # collect the Disconnected response instead of "no pending"
        for entry in pending:
            if not entry.event.is_set():
                entry.response = {
                    "status": "error", "kind": "Disconnected", "error": reason
                }
            entry.event.set()


# -- the open-loop load generator --------------------------------------------


@dataclass
class LoadReport:
    """What one load run produced, ready for BENCH_serving.json."""

    sent: int = 0
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    cancelled: int = 0
    deadline_exceeded: int = 0
    partial: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    per_tenant: dict[str, dict[str, int]] = field(default_factory=dict)
    rejected_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def percentile(self, p: float) -> Optional[float]:
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "rejected": self.rejected,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "deadline_exceeded": self.deadline_exceeded,
            "partial": self.partial,
            "wall_s": round(self.wall_s, 4),
            "qps": round(self.qps, 2),
            "latency_ms": {
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
            },
            "per_tenant": self.per_tenant,
            "rejected_reasons": self.rejected_reasons,
        }


def run_load(
    host: str,
    port: int,
    requests: list[tuple[str, str]],
    *,
    rate_qps: Optional[float] = None,
    connections: int = 4,
    timeout_s: float = 60.0,
    deadline_ms: Optional[float] = None,
) -> LoadReport:
    """Drive the server with ``requests`` (a list of (tenant, query)).

    ``rate_qps`` schedules sends open-loop at that aggregate rate
    (``None`` = as fast as the connections can issue).  Each request is
    dispatched to a connection pool worker; the report aggregates
    statuses, per-tenant counts, and end-to-end wall latencies.
    ``deadline_ms`` stamps every request with that end-to-end budget.
    """
    if connections < 1:
        raise ReproError("need at least 1 connection")
    report = LoadReport()
    report_lock = threading.Lock()
    clients = [
        ServingClient(host, port, timeout_s=timeout_s) for _ in range(connections)
    ]
    try:
        threads: list[threading.Thread] = []
        started = time.perf_counter()

        def _issue(client: ServingClient, tenant: str, query: str) -> None:
            begun = time.perf_counter()
            message: dict[str, Any] = {
                "op": "query", "query": query, "tenant": tenant
            }
            if deadline_ms is not None:
                message["deadline_ms"] = deadline_ms
            try:
                response = client.request(message)
            except ReproError:
                response = {"status": "error", "kind": "ClientError"}
            elapsed_ms = (time.perf_counter() - begun) * 1000.0
            status = response.get("status")
            with report_lock:
                tenant_bucket = report.per_tenant.setdefault(
                    tenant, {"ok": 0, "rejected": 0, "errors": 0}
                )
                if status in ("ok", "partial"):
                    report.ok += 1
                    tenant_bucket["ok"] += 1
                    report.latencies_ms.append(elapsed_ms)
                    if status == "partial":
                        report.partial += 1
                elif status == "rejected":
                    report.rejected += 1
                    tenant_bucket["rejected"] += 1
                    reason = response.get("reason", "unknown")
                    report.rejected_reasons[reason] = (
                        report.rejected_reasons.get(reason, 0) + 1
                    )
                elif status == "cancelled":
                    report.cancelled += 1
                elif status == "deadline_exceeded":
                    report.deadline_exceeded += 1
                else:
                    report.errors += 1
                    tenant_bucket["errors"] += 1

        for index, (tenant, query) in enumerate(requests):
            if rate_qps is not None and rate_qps > 0:
                due = started + index / rate_qps
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            client = clients[index % len(clients)]
            thread = threading.Thread(
                target=_issue, args=(client, tenant, query), daemon=True
            )
            thread.start()
            threads.append(thread)
            report.sent += 1
        for thread in threads:
            thread.join(timeout=timeout_s)
        report.wall_s = time.perf_counter() - started
    finally:
        for client in clients:
            client.close()
    return report
