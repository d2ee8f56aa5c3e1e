"""The serving layer: protocol, admission, warmer, server, and CLI.

Fast unit tests run unmarked in tier 1.  The heavier soak/load test at
the bottom carries ``@pytest.mark.serving`` and only runs when
``REPRO_SERVING_SOAK=1`` (the CI serving job sets it), keeping tier-1
runtime flat.
"""

from __future__ import annotations

import io
import os
import socket
import threading
import time

import pytest

from repro.errors import ReproError
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    CacheWarmer,
    MediatorServer,
    ServingClient,
    ServingConfig,
    decode_message,
    encode_message,
    run_load,
)
from repro.serving.admission import (
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUOTA,
)
from repro.serving.protocol import ProtocolError, Request


# -- protocol -----------------------------------------------------------------


def test_message_round_trip():
    message = {"op": "query", "id": "r1", "tenant": "acme", "query": "?- m(A, C)."}
    assert decode_message(encode_message(message).strip()) == message


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        decode_message(b"not json at all")


def test_request_parse_validates():
    request = Request.parse(
        {"op": "query", "id": "r9", "tenant": "t", "query": "?- m(A, C)."}
    )
    assert request.id == "r9" and request.tenant == "t"
    with pytest.raises(ProtocolError):
        Request.parse({"op": "nope"})
    with pytest.raises(ProtocolError):
        Request.parse({"op": "query"})  # query text required
    with pytest.raises(ProtocolError):
        Request.parse({"op": "query", "query": "?- m(A, C).", "mode": "weird"})
    with pytest.raises(ProtocolError):
        Request.parse({"op": "query", "query": "?- m(A, C).", "max_answers": 0})
    with pytest.raises(ProtocolError):
        Request.parse({"op": "query", "query": "?- m(A, C).", "tenant": ""})


def test_request_parse_assigns_anonymous_ids():
    first = Request.parse({"op": "ping"})
    second = Request.parse({"op": "ping"})
    assert first.id != second.id


def test_request_parse_deadline_and_cancel_validation():
    request = Request.parse(
        {"op": "query", "query": "?- m(A, C).", "deadline_ms": 250}
    )
    assert request.deadline_ms == 250.0
    for bad in (0, -5, "soon", True):
        with pytest.raises(ProtocolError):
            Request.parse(
                {"op": "query", "query": "?- m(A, C).", "deadline_ms": bad}
            )
    cancel = Request.parse({"op": "cancel", "target": "r7"})
    assert cancel.target == "r7"
    with pytest.raises(ProtocolError):
        Request.parse({"op": "cancel"})
    with pytest.raises(ProtocolError):
        Request.parse({"op": "cancel", "target": ""})


# -- admission control --------------------------------------------------------


def test_admission_global_bound_rejects_with_retry_hint():
    controller = AdmissionController(
        AdmissionPolicy(max_queue_depth=2, max_tenant_depth=2, retry_after_ms=75.0)
    )
    controller.submit("a", 1)
    controller.submit("a", 2)
    with pytest.raises(AdmissionRejected) as exc_info:
        controller.submit("b", 3)
    assert exc_info.value.reason == REASON_QUEUE_FULL
    assert exc_info.value.retry_after_ms == 75.0


def test_admission_tenant_quota_before_global():
    controller = AdmissionController(
        AdmissionPolicy(max_queue_depth=10, max_tenant_depth=1)
    )
    controller.submit("a", 1)
    with pytest.raises(AdmissionRejected) as exc_info:
        controller.submit("a", 2)
    assert exc_info.value.reason == REASON_TENANT_QUOTA
    # another tenant still fits
    controller.submit("b", 3)


def test_admission_weighted_fair_dequeue():
    policy = AdmissionPolicy(
        max_queue_depth=64, max_tenant_depth=32, weights={"heavy": 2.0}
    )
    controller = AdmissionController(policy)
    for index in range(6):
        controller.submit("heavy", f"h{index}")
        controller.submit("light", f"l{index}")
    order = []
    for _ in range(12):
        ticket = controller.next(timeout=0.1)
        assert ticket is not None
        order.append(ticket.tenant)
        controller.task_done(ticket)
    # weight 2 drains twice per weight-1 drain: in any prefix the heavy
    # tenant should never trail the light one
    heavy_in_first_six = order[:6].count("heavy")
    assert heavy_in_first_six >= 4


def test_admission_idle_tenant_gets_no_banked_burst():
    controller = AdmissionController(
        AdmissionPolicy(max_queue_depth=64, max_tenant_depth=32)
    )
    # tenant a drains 10 requests while b is idle
    for index in range(10):
        controller.submit("a", index)
        ticket = controller.next(timeout=0.1)
        controller.task_done(ticket)
    # now both tenants are backlogged; b must interleave, not burst
    for index in range(4):
        controller.submit("a", f"a{index}")
        controller.submit("b", f"b{index}")
    order = []
    for _ in range(8):
        ticket = controller.next(timeout=0.1)
        order.append(ticket.tenant)
        controller.task_done(ticket)
    assert order[:2].count("b") <= 1  # no catch-up burst at the front
    assert order.count("b") == 4


def test_admission_drain_rejects_new_completes_queued():
    controller = AdmissionController(AdmissionPolicy(max_queue_depth=8))
    controller.submit("a", 1)
    controller.begin_drain()
    with pytest.raises(AdmissionRejected) as exc_info:
        controller.submit("a", 2)
    assert exc_info.value.reason == REASON_DRAINING
    ticket = controller.next(timeout=0.1)
    assert ticket is not None and ticket.payload == 1
    assert not controller.wait_drained(timeout=0.05)  # still in flight
    controller.task_done(ticket)
    assert controller.wait_drained(timeout=1.0)


def test_admission_high_watermark_metric_tracks_peak_depth():
    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    controller = AdmissionController(
        AdmissionPolicy(max_queue_depth=8), metrics=metrics
    )
    for index in range(3):
        controller.submit("a", index)
    ticket = controller.next(timeout=0.1)
    controller.task_done(ticket)
    controller.submit("b", "x")  # depth back to 3, watermark unchanged
    assert metrics.value("serving.queue.high_watermark") == 3.0
    assert controller.high_watermark == 3


def test_task_done_without_next_raises():
    controller = AdmissionController()
    ticket = controller.submit("a", 1)
    with pytest.raises(ReproError):
        controller.task_done(ticket)


# -- cache warmer -------------------------------------------------------------


def test_warmer_warms_once_at_threshold():
    warmed = []
    warmer = CacheWarmer(
        lambda scope, text: warmed.append((scope, text)), threshold=2
    )
    warmer.start()
    try:
        # same shape, different constants: one template, warmed once
        warmer.observe("", "?- m('a', C).")
        warmer.observe("", "?- m('b', C).")
        warmer.observe("", "?- m('c', C).")
        assert warmer.flush(timeout=5.0)
    finally:
        warmer.stop()
    assert len(warmed) == 1


def test_warmer_scopes_templates_per_tenant():
    warmed = []
    warmer = CacheWarmer(
        lambda scope, text: warmed.append(scope), threshold=2
    )
    warmer.start()
    try:
        for _ in range(2):
            warmer.observe("t1", "?- m(A, C).")
            warmer.observe("t2", "?- m(A, C).")
        assert warmer.flush(timeout=5.0)
    finally:
        warmer.stop()
    assert sorted(warmed) == ["t1", "t2"]


def test_warmer_bounded_queue_drops_oldest():
    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    warmer = CacheWarmer(
        lambda scope, text: None, threshold=1, capacity=4, metrics=metrics
    )
    # not started: observations pile up and overflow the bound
    for index in range(10):
        warmer.observe("", f"?- m('c{index}', C).")
    assert warmer.backlog == 4
    assert metrics.value("serving.warmer.dropped") == 6.0


def test_warmer_survives_failing_execute():
    def boom(scope: str, text: str) -> None:
        raise RuntimeError("source down")

    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    warmer = CacheWarmer(boom, threshold=1, metrics=metrics)
    warmer.start()
    try:
        warmer.observe("", "?- m(A, C).")
        assert warmer.flush(timeout=5.0)
    finally:
        warmer.stop()
    assert metrics.value("serving.warmer.errors") == 1.0


def test_warmer_ignores_unparsable_queries():
    warmed = []
    warmer = CacheWarmer(lambda s, t: warmed.append(t), threshold=1)
    warmer.start()
    try:
        warmer.observe("", "this is not a query")
        warmer.observe("", "?- m(A, C).")
        assert warmer.flush(timeout=5.0)
    finally:
        warmer.stop()
    assert warmed == ["?- m(A, C)."]


# -- server end to end --------------------------------------------------------


@pytest.fixture
def served(m1_mediator):
    config = ServingConfig(workers=2, warm_threshold=2)
    server = MediatorServer(m1_mediator, config=config).start()
    try:
        yield server, m1_mediator
    finally:
        server.drain(timeout=10.0)


def test_server_answers_match_direct_query(served, m1_mediator):
    server, mediator = served
    host, port = server.address
    direct = {tuple(a) for a in mediator.query("?- m(A, C).").answers}
    with ServingClient(host, port, tenant="acme") as client:
        response = client.query("?- m(A, C).")
    assert response["status"] == "ok"
    served_answers = {tuple(answer) for answer in response["answers"]}
    assert served_answers == {tuple(a) for a in direct}
    assert response["cardinality"] == len(direct)
    assert response["complete"] is True
    assert response["queue_wait_ms"] >= 0.0


def test_server_ping_stats_and_error_responses(served):
    server, _ = served
    host, port = server.address
    with ServingClient(host, port) as client:
        assert client.ping()["pong"] is True
        stats = client.stats()["stats"]
        assert "cache" in stats and "serving" in stats
        bad = client.query("?- undefined_predicate(X).")
        assert bad["status"] == "error"
        assert bad["kind"] == "PlanningError"


def test_both_ends_disable_nagle(served):
    """Small request/response writes must not wait on Nagle's algorithm
    for the peer's delayed ACK."""
    server, _ = served
    host, port = server.address
    with ServingClient(host, port) as client:
        assert client.ping()["pong"] is True
        assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        with server._connections_lock:
            accepted = [connection.sock for connection in server._connections]
        assert accepted
        for sock in accepted:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_server_concurrent_tenants_share_caches(m1_mediator):
    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=4)
    ).start()
    try:
        host, port = server.address
        results = []
        errors = []

        def session(tenant: str) -> None:
            try:
                with ServingClient(host, port, tenant=tenant) as client:
                    for _ in range(5):
                        response = client.query("?- m(A, C).")
                        results.append(response["status"])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=session, args=(f"tenant{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert results.count("ok") == 20
        # all four tenants hit ONE shared mediator: its CIM saw every call
        summary = server.drain(timeout=10.0)
        assert summary["completed"] == 20.0
        assert summary["dropped_in_flight"] == 0.0
    finally:
        server.drain(timeout=10.0)


def test_server_rejects_with_backpressure_then_recovers(m1_mediator):
    config = ServingConfig(
        workers=1,
        admission=AdmissionPolicy(
            max_queue_depth=2, max_tenant_depth=2, retry_after_ms=20.0
        ),
    )
    server = MediatorServer(m1_mediator, config=config).start()
    try:
        host, port = server.address
        # the sync client waits per request; raw pipelining floods the queue
        statuses = _pipeline_burst(host, port, "flood", "?- m(A, C).", count=12)
        assert "rejected" in statuses  # backpressure fired
        rejected = [s for s in statuses if s == "rejected"]
        ok = [s for s in statuses if s == "ok"]
        assert len(rejected) + len(ok) == 12
        # watermark never exceeded the configured bound
        assert server.admission.high_watermark <= 2
        # after the burst drains, a fresh request is admitted again
        with ServingClient(host, port, tenant="flood") as client:
            assert client.query("?- m(A, C).")["status"] == "ok"
    finally:
        server.drain(timeout=10.0)


def _pipeline_burst(
    host: str, port: int, tenant: str, query: str, count: int
) -> list[str]:
    """Fire ``count`` pipelined requests on one socket, return statuses."""
    import socket as socket_mod

    sock = socket_mod.create_connection((host, port), timeout=10.0)
    try:
        payload = b"".join(
            encode_message(
                {"op": "query", "id": f"b{i}", "tenant": tenant, "query": query}
            )
            for i in range(count)
        )
        sock.sendall(payload)
        statuses: list[str] = []
        buffer = b""
        while len(statuses) < count:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    statuses.append(decode_message(line)["status"])
        return statuses
    finally:
        sock.close()


def test_server_graceful_drain_completes_inflight(m1_mediator):
    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=2)
    ).start()
    host, port = server.address
    sock_statuses = []

    def burst() -> None:
        sock_statuses.extend(
            _pipeline_burst(host, port, "t", "?- m(A, C).", count=6)
        )

    thread = threading.Thread(target=burst)
    thread.start()
    time.sleep(0.05)  # let some requests land in the queue
    summary = server.drain(timeout=15.0)
    thread.join(timeout=15.0)
    assert summary["dropped_in_flight"] == 0.0
    # every admitted request completed; the rest were rejected as draining
    assert all(s in ("ok", "rejected") for s in sock_statuses)
    # post-drain requests get nothing: the connection is refused, or the
    # socket accepts at TCP level and then yields no response
    try:
        post_drain = _pipeline_burst(host, port, "t", "?- m(A, C).", count=1)
    except OSError:
        post_drain = []
    assert post_drain == []


def test_server_isolated_tenants_do_not_share_caches(m1_mediator_factory):
    config = ServingConfig(workers=2, isolate_tenants=True)
    server = MediatorServer(
        mediator_factory=m1_mediator_factory, config=config
    ).start()
    try:
        host, port = server.address
        with ServingClient(host, port, tenant="t1") as client:
            assert client.query("?- m(A, C).")["status"] == "ok"
        with ServingClient(host, port, tenant="t2") as client:
            assert client.query("?- m(A, C).")["status"] == "ok"
        first = server.mediator_for("t1")
        second = server.mediator_for("t2")
        assert first is not second
        assert first.metrics.value("mediator.queries") == 1.0
        assert second.metrics.value("mediator.queries") == 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_warmer_populates_shared_caches(m1_mediator):
    config = ServingConfig(workers=1, warm_threshold=2)
    server = MediatorServer(m1_mediator, config=config).start()
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            client.query("?- m('a', C).")
            client.query("?- m('b', C).")
        assert server.warmer is not None
        assert server.warmer.flush(timeout=10.0)
        assert server.metrics.value("serving.warmer.warmed") >= 1.0
    finally:
        server.drain(timeout=10.0)


@pytest.fixture
def m1_mediator_factory():
    """A factory producing fresh, independent M1 mediators."""
    return _fresh_m1


def _fresh_m1():
    from repro.core.mediator import Mediator
    from repro.domains.base import simple_domain

    p_pairs = [("a", 1), ("a", 2), ("b", 3)]
    q_pairs = [(1, "x"), (2, "y"), (3, "z")]
    d1 = simple_domain(
        "d1",
        {
            "p_ff": lambda: ([tuple(pair) for pair in p_pairs], 4.0, 10.0),
            "p_fb": lambda b: ([a for a, bb in p_pairs if bb == b], 8.0, 10.0),
            "p_bb": lambda a, b: ([True] if (a, b) in p_pairs else [], 10.0, 10.0),
        },
    )
    d2 = simple_domain(
        "d2",
        {
            "q_ff": lambda: ([tuple(pair) for pair in q_pairs], 40.0, 100.0),
            "q_bf": lambda b: ([c for bb, c in q_pairs if bb == b], 8.0, 10.0),
        },
    )
    mediator = Mediator()
    mediator.register_domain(d1)
    mediator.register_domain(d2)
    mediator.load_program(
        """
        m(A, C) :- p(A, B) & q(B, C).
        p(A, B) :- in(Ans, d1:p_ff()), =($Ans.1, A), =($Ans.2, B).
        p(A, B) :- in(A, d1:p_fb(B)).
        q(B, C) :- in(Ans, d2:q_ff()), =($Ans.1, B), =($Ans.2, C).
        q(B, C) :- in(C, d2:q_bf(B)).
        """
    )
    return mediator


# -- CLI ----------------------------------------------------------------------


def test_cli_serve_and_load_round_trip():
    from repro.cli import load_main, serve_main

    out = io.StringIO()
    result: dict = {}

    def run_server() -> None:
        result["rc"] = serve_main(
            ["--workers", "2", "--port", "0", "--max-seconds", "8"], out
        )

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    port = None
    while time.monotonic() < deadline:
        text = out.getvalue()
        if " on " in text:
            port = int(text.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            break
        time.sleep(0.05)
    assert port is not None, f"server never printed its address: {out.getvalue()!r}"
    load_out = io.StringIO()
    rc = load_main(
        [
            "--port", str(port), "--tenant", "a", "--tenant", "b",
            "--requests", "10", "--connections", "2", "--json",
        ],
        load_out,
    )
    assert rc == 0
    import json

    report = json.loads(load_out.getvalue())
    assert report["ok"] == 10
    assert report["errors"] == 0
    assert set(report["per_tenant"]) == {"a", "b"}
    thread.join(timeout=15.0)
    assert result["rc"] == 0
    assert "0 dropped in flight" in out.getvalue()


def test_cli_stats_json_is_machine_readable():
    import json

    from repro.cli import stats_main

    out = io.StringIO()
    rc = stats_main(["--json", "--cim", "?- actors(A)."], out)
    assert rc == 0
    payload = json.loads(out.getvalue())
    assert payload["queries_run"] == 1
    assert payload["answers"] > 0
    assert payload["cim"]["calls"] > 0
    assert "plan" in payload["cache"] and "subplan" in payload["cache"]
    assert "metrics" in payload


def test_run_load_reports_per_tenant_counts(m1_mediator):
    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=2)
    ).start()
    try:
        host, port = server.address
        plan = [("alpha", "?- m(A, C)."), ("beta", "?- m(A, C).")] * 5
        report = run_load(host, port, plan, connections=2)
        assert report.sent == 10
        assert report.ok == 10
        assert report.per_tenant["alpha"]["ok"] == 5
        assert report.per_tenant["beta"]["ok"] == 5
        assert report.qps > 0
    finally:
        server.drain(timeout=10.0)


# -- adaptive admission -------------------------------------------------------


def test_admission_ewma_feeds_adaptive_retry_hint():
    controller = AdmissionController(
        AdmissionPolicy(retry_after_ms=10.0, max_retry_after_ms=500.0),
        workers=2,
    )
    # cold EWMA: the static floor
    assert controller.retry_after_hint() == 10.0
    controller.record_service_time(100.0)
    assert controller.ewma_service_ms == 100.0
    controller.record_service_time(200.0)  # alpha 0.2 -> 120
    assert abs(controller.ewma_service_ms - 120.0) < 1e-9
    # empty queue: still the floor
    assert controller.retry_after_hint() == 10.0
    for i in range(4):
        controller.submit("t", i)
    # backlog 4 x 120ms / 2 workers = 240ms expected drain
    assert abs(controller.retry_after_hint() - 240.0) < 1e-6
    # a pathological EWMA clamps to the ceiling
    for _ in range(30):
        controller.record_service_time(10_000.0)
    assert controller.retry_after_hint() == 500.0


def test_admission_shed_mode_drops_lowest_weight_first():
    policy = AdmissionPolicy(
        shed_ewma_ms=50.0, weights={"gold": 4.0, "bronze": 1.0}
    )
    controller = AdmissionController(policy)
    controller.record_service_time(10.0)
    controller.submit("bronze", 1)  # below threshold: admitted
    for _ in range(30):
        controller.record_service_time(500.0)
    assert controller.shedding
    controller.submit("gold", 2)  # high weight keeps flowing
    with pytest.raises(AdmissionRejected) as rejection:
        controller.submit("bronze", 3)
    assert rejection.value.reason == "shed"
    # drain, then bronze is still shed (bottom of the weight table)
    for _ in range(2):
        ticket = controller.next(timeout=1.0)
        assert ticket is not None
        controller.task_done(ticket)
    with pytest.raises(AdmissionRejected):
        controller.submit("bronze", 4)
    controller.submit("gold", 5)


def test_admission_queued_ticket_expires_without_executing():
    expired = []
    controller = AdmissionController(on_expired=expired.append)
    doomed = controller.submit(
        "t", "dead", deadline_at=time.monotonic() + 0.02
    )
    live = controller.submit("t", "live")
    time.sleep(0.05)
    ticket = controller.next(timeout=1.0)
    assert ticket is live  # the expired ticket is reaped, never returned
    assert expired == [doomed] and doomed.expired
    controller.task_done(ticket)
    assert controller.depth == 0
    # reap_expired is the watchdog's direct hook
    doomed2 = controller.submit(
        "t", "dead2", deadline_at=time.monotonic() - 0.01
    )
    assert controller.reap_expired() == [doomed2]
    assert controller.depth == 0


def test_admission_remove_pulls_queued_only():
    controller = AdmissionController()
    ticket = controller.submit("t", 1)
    assert controller.remove(ticket) is True and ticket.cancelled
    assert controller.depth == 0
    assert controller.remove(ticket) is False  # already gone
    second = controller.submit("t", 2)
    taken = controller.next(timeout=1.0)
    assert taken is second
    assert controller.remove(second) is False  # in flight, not queued
    controller.task_done(second)


# -- request lifecycle: deadlines, cancellation, partials ---------------------


def _slow_server(wall_ms: float = 25.0, **config_kwargs):
    from repro.workloads.serving_chaos import build_serving_testbed

    testbed = build_serving_testbed(relations=3, wall_ms=wall_ms)
    config = ServingConfig(**{"workers": 2, **config_kwargs})
    server = MediatorServer(testbed.mediator, config=config).start()
    return testbed, server


def test_server_cancel_inflight_stops_dialing():
    testbed, server = _slow_server()
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            target = client.send(
                {"op": "query", "query": testbed.chain_query(key="c1")}
            )
            time.sleep(0.04)  # let it start dialing
            ack = client.cancel(target)
            assert ack["status"] == "ok" and ack["cancelled"] is True
            response = client.wait(target, timeout_s=10.0)
            assert response["status"] == "cancelled"
            assert response["reason"] == "client_cancel"
        time.sleep(0.1)  # any in-progress dial finishes...
        frozen = testbed.total_dials()
        time.sleep(0.1)
        assert testbed.total_dials() == frozen  # ...then the count freezes
        assert server.metrics.value("serving.cancelled") == 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_cancel_unknown_or_done_id_is_harmless():
    testbed, server = _slow_server(wall_ms=0.0)
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            ack = client.cancel("never-existed")
            assert ack["status"] == "ok" and ack["cancelled"] is False
            done = client.query(testbed.chain_query(1, key="d1"))
            assert done["status"] == "ok"
            ack = client.cancel(done["id"])
            assert ack["cancelled"] is False
    finally:
        server.drain(timeout=10.0)


def test_server_cancel_queued_request_never_executes():
    testbed, server = _slow_server(workers=1)
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            running = client.send(
                {"op": "query", "query": testbed.chain_query(key="run")}
            )
            time.sleep(0.04)  # the single worker is now busy
            queued = client.send(
                {"op": "query", "query": testbed.chain_query(key="queued")}
            )
            ack = client.cancel(queued)
            assert ack["cancelled"] is True
            response = client.wait(queued, timeout_s=10.0)
            assert response["status"] == "cancelled"
            first = client.wait(running, timeout_s=30.0)
            assert first["status"] == "ok"
        # the queued chain's fresh key never dialed a source
        assert server.metrics.value("serving.cancel.queued") == 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_deadline_exceeded_mid_flight():
    testbed, server = _slow_server()
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            response = client.query(
                testbed.chain_query(key="dl"),
                deadline_ms=40.0,
                timeout_s=30.0,
            )
        assert response["status"] == "deadline_exceeded"
        assert server.metrics.value("serving.deadline.exceeded") >= 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_deadline_expires_in_queue_as_rejected():
    testbed, server = _slow_server(workers=1)
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            running = client.send(
                {"op": "query", "query": testbed.chain_query(key="busy")}
            )
            time.sleep(0.04)
            doomed = client.send(
                {
                    "op": "query",
                    "query": testbed.chain_query(key="doomed"),
                    "deadline_ms": 20.0,
                }
            )
            response = client.wait(doomed, timeout_s=10.0)
            assert response["status"] == "rejected"
            assert response["reason"] == "deadline_exceeded"
            assert client.wait(running, timeout_s=30.0)["status"] == "ok"
        assert server.metrics.value("serving.deadline.queue_expired") >= 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_watchdog_enforces_max_runtime():
    testbed, server = _slow_server(max_runtime_ms=60.0)
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            response = client.query(
                testbed.chain_query(key="forever"), timeout_s=30.0
            )
        assert response["status"] == "cancelled"
        assert response["reason"] == "max_runtime"
        assert server.metrics.value("serving.cancel.watchdog") >= 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_partial_results_respect_tenant_policy():
    testbed, server = _slow_server(
        wall_ms=0.0, partial_tenants={"strict": False}
    )
    testbed.set_down(frozenset({"w0"}))
    try:
        host, port = server.address
        with ServingClient(host, port, tenant="lenient") as client:
            response = client.query(testbed.chain_query(1, key="p1"))
            assert response["status"] == "partial"
            assert response["completeness"] == "partial"
            assert response["missing_sources"] == ["w0"]
        with ServingClient(host, port, tenant="strict") as client:
            response = client.query(testbed.chain_query(1, key="p2"))
            assert response["status"] == "error"
            assert response["kind"] == "PartialResult"
        assert server.metrics.value("serving.partial.returned") == 1.0
        assert server.metrics.value("serving.partial.denied") == 1.0
    finally:
        server.drain(timeout=10.0)


def test_server_duplicate_inflight_id_refused(m1_mediator):
    import socket as socket_mod

    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=1)
    ).start()
    try:
        host, port = server.address
        with socket_mod.create_connection((host, port), timeout=10.0) as sock:
            for _ in range(2):
                sock.sendall(
                    encode_message(
                        {"op": "query", "id": "dup", "query": "?- m(A, C)."}
                    )
                )
            sock.settimeout(10.0)
            data = b""
            while data.count(b"\n") < 2:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        responses = [
            decode_message(line)
            for line in data.split(b"\n")
            if line.strip()
        ]
        statuses = sorted(r["status"] for r in responses)
        assert statuses == ["error", "ok"]
        error = next(r for r in responses if r["status"] == "error")
        assert "already in flight" in error["error"]
    finally:
        server.drain(timeout=10.0)


def test_server_survives_oversized_and_invalid_frames(m1_mediator):
    import socket as socket_mod

    from repro.serving.protocol import MAX_LINE_BYTES

    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=1)
    ).start()
    host, port = server.address

    def one_frame(frame: bytes) -> str:
        try:
            with socket_mod.create_connection(
                (host, port), timeout=10.0
            ) as sock:
                sock.sendall(frame)
                sock.settimeout(10.0)
                data = b""
                while b"\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return "closed"
                    data += chunk
            return str(decode_message(data.split(b"\n", 1)[0])["status"])
        except OSError:
            return "closed"

    try:
        assert one_frame(b"\xff\xfe not utf8 \xff\n") == "error"
        assert one_frame(b"{truncated\n") == "error"
        oversized = (
            b'{"op": "query", "query": "'
            + b"x" * (MAX_LINE_BYTES + 64)
            + b'"}\n'
        )
        assert one_frame(oversized) in ("error", "closed")
        # the server is still healthy afterwards
        with ServingClient(host, port) as client:
            assert client.ping()["pong"] is True
    finally:
        server.drain(timeout=10.0)


def test_client_fails_fast_after_connection_death():
    import socket as socket_mod

    listener = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    client = ServingClient(host, port, timeout_s=30.0)
    try:
        conn, _ = listener.accept()
        started = time.perf_counter()
        # in-flight request: the reader fails it the moment the server dies
        target = client.send({"op": "ping"})
        conn.close()
        response = client.wait(target, timeout_s=30.0)
        assert response["kind"] == "Disconnected"
        # new requests after death fail fast, not after the 30s timeout
        with pytest.raises(ReproError, match="dead|closed|send failed"):
            client.request({"op": "ping"})
        assert time.perf_counter() - started < 5.0
        assert client.dead
    finally:
        client.close()
        listener.close()


def test_server_stats_expose_lifecycle_and_ewma(m1_mediator):
    server = MediatorServer(
        m1_mediator, config=ServingConfig(workers=1)
    ).start()
    try:
        host, port = server.address
        with ServingClient(host, port) as client:
            assert client.query("?- m(A, C).")["status"] == "ok"
            stats = client.stats()["stats"]
        assert stats["lifecycle"]["completed"] >= 1.0
        assert stats["ewma_service_ms"] is not None
        assert stats["retry_after_ms"] >= 0.0
        assert stats["shedding"] is False
    finally:
        server.drain(timeout=10.0)


# -- soak (outside the tier-1 budget) -----------------------------------------


@pytest.mark.serving
@pytest.mark.skipif(
    not os.environ.get("REPRO_SERVING_SOAK"),
    reason="serving soak test: set REPRO_SERVING_SOAK=1",
)
def test_soak_sustained_multi_tenant_load(m1_mediator):
    config = ServingConfig(
        workers=4,
        warm_threshold=3,
        admission=AdmissionPolicy(max_queue_depth=32, max_tenant_depth=16),
    )
    server = MediatorServer(m1_mediator, config=config).start()
    try:
        host, port = server.address
        tenants = ["t1", "t2", "t3", "t4"]
        plan = [
            (tenants[i % 4], "?- m(A, C).") for i in range(200)
        ]
        report = run_load(host, port, plan, rate_qps=100.0, connections=4)
        assert report.errors == 0
        assert report.ok + report.rejected == 200
        assert report.ok > 150  # under the admission limit almost all land
        summary = server.drain(timeout=30.0)
        assert summary["dropped_in_flight"] == 0.0
    finally:
        server.drain(timeout=10.0)
