"""The served open-loop workload: ``served_cim_churn``.

For each of three fixed arrival rates (low, nominal, high) a fresh
server process is started (``server_proc.py``), warmed, and then driven
on a fixed send schedule by a single-threaded selector loop over two
pipelined NDJSON connections (framing from ``repro.serving.protocol``).
Each request is timed from when it was *due*, not from when it was
sent, so a stall is charged to every request it delays; the loop
reports its own lateness.  Every 50th request the launcher fires a
source write inside the server process.  The nominal rate's schedule is
run three times, each on a fresh server, and each request's latency is
its best over the three.

Run as its own process (see ``run.py``); prints one JSON record as its
last line.

Usage: python3 perfbench/served.py --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import select
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import common
import mix

common.import_program()

from repro.serving.protocol import decode_message, encode_message  # noqa: E402

from inproc import oracle_digests  # noqa: E402  (the same oracle as paper_stats)

#: arrival rates (requests per second), their share of ``--seconds``, and
#: how many times each rate's schedule is run, each on a fresh server.
#: The server writes responses without TCP_NODELAY, so once a connection
#: carries more than about 25 requests per second a response waits for
#: the client's next request to acknowledge the one before it (Nagle's
#: algorithm against delayed ACKs): latency then tracks the gap between
#: requests, not the mediator.  The gated nominal rate sits below that
#: knee; the high rate, near the server's capacity, sits above it
RATES = (("low", 20.0, 0.1, 1), ("nominal", 40.0, 0.7, 3), ("high", 150.0, 0.2, 1))
CONNECTIONS = 2
#: set-up warm-up: this many requests, closed loop, at most WINDOW in flight
WARM_REQUESTS = 200
WINDOW = 4
NOTIFY_EVERY = 50
#: the generator polls instead of sleeping this long before a send is due
SPIN_S = 0.002
#: how long to wait for the last responses after the schedule ends
GRACE_S = 10.0
#: statuses a response can carry, plus ``missing`` for no response
STATUSES = ("ok", "partial", "rejected", "error", "cancelled", "deadline_exceeded", "missing")


class Launcher:
    """One server process and its command pipe."""

    def __init__(self, trace: int, spans: str = ""):
        command = [sys.executable, os.path.join(common.HERE, "server_proc.py"), "--trace", str(trace)]
        if spans:
            command += ["--spans", spans]
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=common.workload_env(),
            text=True,
            bufsize=1,
        )
        self.port = int(self._read(60.0)["ready"])

    def _read(self, timeout: float) -> dict[str, Any]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def ask(self, command: str, timeout: float = 60.0) -> dict[str, Any]:
        self.send(command)
        return self._read(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


@dataclass
class Outcome:
    text: str
    due: float
    sent: float = 0.0
    arrived: float = 0.0
    status: str = "missing"
    response: dict[str, Any] = field(default_factory=dict)


def drive(
    connections: list[socket.socket],
    items: list[tuple[str, str]],
    rate: Optional[float],
    launcher: Optional[Launcher] = None,
) -> tuple[list[Outcome], float, int]:
    """Send ``items`` on a fixed schedule (``rate`` per second), or
    closed loop with at most ``WINDOW`` in flight when ``rate`` is None.

    Returns the outcomes, the time the first request was due and the
    number still unanswered when the last one was sent."""
    # select(2) takes a microsecond timeout; epoll rounds up to whole
    # milliseconds, which would make the generator itself run late
    selector = selectors.SelectSelector()
    inbound = {sock: bytearray() for sock in connections}
    outbound = {sock: bytearray() for sock in connections}
    for sock in connections:
        selector.register(sock, selectors.EVENT_READ)
    start = time.perf_counter() + 0.005
    outcomes: list[Outcome] = []
    pending: dict[str, Outcome] = {}
    backlog_at_last_send = 0
    grace_until = None

    def flush(sock: socket.socket) -> None:
        buffer = outbound[sock]
        if buffer:
            try:
                sent = sock.send(buffer)
            except BlockingIOError:
                sent = 0
            del buffer[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if buffer else 0)
        selector.modify(sock, events)

    try:
        while True:
            now = time.perf_counter()
            index = len(outcomes)
            while index < len(items):
                due = start + index / rate if rate else now
                if due > now or (rate is None and len(pending) >= WINDOW):
                    break
                tenant, text = items[index]
                outcome = Outcome(text=text, due=due, sent=now)
                outcomes.append(outcome)
                pending[str(index)] = outcome
                sock = connections[index % len(connections)]
                outbound[sock] += encode_message(
                    {"op": "query", "id": str(index), "tenant": tenant, "query": text}
                )
                flush(sock)
                index += 1
                if launcher is not None and index % NOTIFY_EVERY == 0:
                    launcher.send("notify")
                if index == len(items):
                    backlog_at_last_send = len(pending)
                    grace_until = now + GRACE_S
            if index == len(items) and (not pending or time.perf_counter() > grace_until):
                break
            # poll without sleeping while a response is due or a send is
            # near: a sleeping generator would add its own wake-up delay,
            # which on a busy host is milliseconds, to the latency it reports
            timeout = 0.0
            if not pending and index < len(items) and rate is not None:
                timeout = max(0.0, start + index / rate - time.perf_counter() - SPIN_S)
            for key, mask in selector.select(timeout):
                sock = key.fileobj
                if mask & selectors.EVENT_WRITE:
                    flush(sock)
                if not mask & selectors.EVENT_READ:
                    continue
                data = sock.recv(1 << 16)
                arrived = time.perf_counter()
                if not data:
                    raise RuntimeError("server closed a connection")
                buffer = inbound[sock]
                buffer += data
                while True:
                    cut = buffer.find(b"\n")
                    if cut < 0:
                        break
                    message = decode_message(bytes(buffer[:cut]))
                    del buffer[: cut + 1]
                    outcome = pending.pop(str(message.get("id")))
                    outcome.arrived = arrived
                    outcome.status = str(message.get("status"))
                    outcome.response = message
    finally:
        selector.close()
    return outcomes, start, backlog_at_last_send


def connect(port: int) -> list[socket.socket]:
    connections = []
    for _ in range(CONNECTIONS):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        connections.append(sock)
    return connections


@dataclass
class Run:
    """One fresh server driven at one fixed rate."""

    rate: float
    outcomes: list[Outcome]
    t0: float
    backlog: int
    setup_s: float
    server: dict[str, Any]
    drained: dict[str, Any]


def run_once(name: str, rate: float, seconds: float, seed: int, trace: int, spans: str) -> Run:
    """One fresh server at one fixed rate: set-up, timed phase, drain.

    The warm-up leaves out the ``query3`` kind, so the warmer still has
    a template (the server shares templates across tenants) to warm in
    the timed phase."""
    warm_kinds = tuple(kind for kind in mix.ROPE_KINDS if kind != "query3")
    warm_items = mix.served_requests(mix.WARM, name, WARM_REQUESTS, warm_kinds)
    items = mix.served_requests(seed, name, max(1, int(rate * seconds)))
    started = time.perf_counter()
    launcher = Launcher(trace, spans)
    connections: list[socket.socket] = []
    try:
        connections = connect(launcher.port)
        drive(connections, warm_items, None)
        setup_s = time.perf_counter() - started
        launcher.ask("begin")
        outcomes, t0, backlog = drive(connections, items, rate, launcher)
        server = launcher.ask("end")
        for sock in connections:
            sock.close()
        connections = []
        drained = launcher.ask("drain")
        launcher.proc.wait(timeout=60)
    finally:
        for sock in connections:
            sock.close()
        launcher.close()
    return Run(rate, outcomes, t0, backlog, setup_s, server, drained)


def judge(run: Run, digests: dict[str, str]) -> tuple[list[Optional[float]], list[str]]:
    """Each request's latency from its due time, ``None`` when it failed,
    was refused, went missing or answered wrong; and the wrong ids."""
    latencies: list[Optional[float]] = []
    wrong: list[str] = []
    for outcome in run.outcomes:
        good = outcome.status == "ok"
        if good and common.digest_encoded(outcome.response["answers"]) != digests.get(outcome.text):
            good = False
            wrong.append(outcome.response.get("id", "?"))
        latencies.append((outcome.arrived - outcome.due) * 1000.0 if good else None)
    return latencies, wrong


def summarise(runs: list[Run], digests: dict[str, str]) -> dict[str, Any]:
    """Figures for one rate over its repeats (the same request schedule,
    each on a fresh server).  Each request's latency is its best over
    the repeats, as on the in-process workloads; the serving parts are
    taken from the first repeat, which is the traced one."""
    rate = runs[0].rate
    judged = [judge(run, digests) for run in runs]
    latencies = common.best_of([j[0] for j in judged])
    statuses = dict.fromkeys(STATUSES, 0)
    for run in runs:
        for outcome in run.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    attempted = sum(len(run.outcomes) for run in runs)
    failed = sum(latency is None for j in judged for latency in j[0])
    first = runs[0]
    waits, services, wires = [], [], []
    for outcome, latency in zip(first.outcomes, judged[0][0]):
        if latency is not None:
            response = outcome.response
            waits.append(response["queue_wait_ms"])
            services.append(response["t_wall_ms"])
            wires.append(latency - response["queue_wait_ms"] - response["t_wall_ms"])
    qps = []
    for run, (run_latencies, _) in zip(runs, judged):
        last_arrival = max((o.arrived for o in run.outcomes), default=run.t0)
        completed = sum(latency is not None for latency in run_latencies)
        qps.append(completed / max(last_arrival - run.t0, 1e-9))
    tail = common.tail(latencies)
    backlog = max(run.backlog for run in runs)
    lags = [(o.sent - o.due) * 1000.0 for run in runs for o in run.outcomes]
    return {
        "rate": rate,
        "repeats": len(runs),
        "attempted": attempted,
        "failed": failed,
        "wrong": [w for j in judged for w in j[1]][:5],
        "statuses": statuses,
        "setup_s": [run.setup_s for run in runs],
        "qps": common.median(qps),
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": tail["value"],
        "tail": {"percentile": tail["percentile"], "samples": tail["samples"]},
        "latency_late_p50_ms": common.median(common.late_slice(latencies)),
        "sim_ms_per_query": sum(run.server["sim_ms_per_query"] for run in runs) / len(runs),
        "dials_per_query": sum(run.server["dials"] for run in runs)
        / max(sum(run.server["completed"] for run in runs), 1),
        "peak_rss_mb": common.median([run.drained["peak_rss_mb"] for run in runs]),
        "backlog_at_last_send": backlog,
        "meets_limit": (
            failed == 0
            and tail["value"] <= common.LATENCY_LIMIT_MS
            and backlog <= 2 + 2 * rate * common.LATENCY_LIMIT_MS / 1000.0
        ),
        "serving": {
            "serving.wire_ms.p50": common.median(wires),
            "serving.wire_ms.tail": common.tail(wires)["value"],
            "serving.queue_wait_ms.p50": common.median(waits),
            "serving.queue_wait_ms.tail": common.tail(waits)["value"],
            "serving.service_ms.p50": common.median(services),
            "serving.service_ms.tail": common.tail(services)["value"],
            "serving.rejected_frac": statuses["rejected"] / max(attempted, 1),
            "serving.warmer_warmed": float(first.server["warmed"]),
            "serving.generator_lag_ms": common.tail(lags)["value"],
        },
        "generator_lag_ms": {"p50": common.median(lags), "max": max(lags, default=0.0)},
        # wire + queue wait + service is the client latency request by
        # request; at the median the parts add up to about the whole
        "p50_parts_sum_ms": common.median(wires) + common.median(waits) + common.median(services),
        "p50_first_repeat_ms": common.median([x for x in judged[0][0] if x is not None]),
        "server": first.server,
        "drained": [run.drained["drained"] for run in runs],
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    calibration_start = common.calibrate()
    digests, cardinalities = oracle_digests("paper_stats")
    spans = os.path.join(common.OUT_DIR, "spans-served_cim_churn.jsonl.gz")
    phases = {}
    for name, rate, share, repeats in RATES:
        runs = [
            run_once(name, rate, args.seconds * share / repeats, args.seed, args.trace,
                     spans if args.trace and name == "nominal" and index == 0 else "")
            for index in range(repeats)
        ]
        phases[name] = summarise(runs, digests)
    nominal = phases["nominal"]
    ok_rates = [phase["rate"] for phase in phases.values() if phase["meets_limit"]]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    e2e = {
        "setup_s": common.metric(common.median([s for p in phases.values() for s in p["setup_s"]]), "s"),
        "failed_frac": common.metric(failed / max(attempted, 1), "ratio"),
        "max_ok_rate_qps": common.metric(max(ok_rates, default=0.0), "1/s"),
    }
    for key, unit in (
        ("qps", "1/s"),
        ("latency_p50_ms", "ms"),
        ("latency_tail_ms", "ms"),
        ("latency_late_p50_ms", "ms"),
        ("sim_ms_per_query", "ms"),
        ("dials_per_query", "count"),
        ("peak_rss_mb", "MB"),
    ):
        e2e[key] = common.metric(nominal[key], unit)
    for name in ("low", "high"):
        e2e[f"latency_p50_ms.{name}"] = common.metric(phases[name]["latency_p50_ms"], "ms")
        e2e[f"latency_tail_ms.{name}"] = common.metric(phases[name]["latency_tail_ms"], "ms")
    record: dict[str, Any] = {
        "workload": "served_cim_churn",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "correct": failed == 0 and all(
            cardinalities[text] == expected for text, expected in mix.PAPER_CARDINALITIES.items()
        ),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "tail": nominal["tail"],
        "paper_cardinalities": cardinalities,
        "phases": phases,
    }
    if args.trace:
        server = nominal["server"]
        completed = max(server["completed"], 1)
        per_layer = dict(server["per_layer"])
        per_layer.update(nominal["serving"])
        per_layer["trace.spans_per_query"] = server["spans"] / completed
        per_layer["trace.overhead_ms_per_query"] = 1000.0 * server["cost_per_span_s"] * server["spans"] / completed
        per_layer["trace.latency_p50_ms"] = nominal["latency_p50_ms"]
        record["per_layer"] = per_layer
    record["calibration_s"] = [calibration_start, common.calibrate()]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
