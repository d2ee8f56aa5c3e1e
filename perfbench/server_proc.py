"""Server launcher for ``served_cim_churn``: runs a ``MediatorServer`` in
this process and takes commands on stdin, one per line.

* ``begin`` — start of the timed phase: snapshot the layer counters
  (and start recording spans when tracing);
* ``notify`` — a source write: ``notify_source_changed('video',
  'frames_to_objects')``, fired here beside the server's cache reads;
* ``end`` — end of the timed phase: reply with the server-side figures;
* ``drain`` (or end of input) — drain the server, write the spans, reply
  with the drain summary and the peak RSS, and exit.

Replies are JSON lines on stdout; the first is ``{"ready": port}``.

Usage: python3 perfbench/server_proc.py --trace 0
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from typing import Any

import common

common.import_program()

from repro.core.mediator import Mediator  # noqa: E402
from repro.serving.server import MediatorServer, ServingConfig  # noqa: E402
from repro.workloads.datasets import build_rope_testbed  # noqa: E402

import layers  # noqa: E402
import tracer as tracing  # noqa: E402

WORKERS = 2
#: the warmer pre-dials a template once it has been seen this often
WARM_THRESHOLD = 2


def reply(message: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class SimTally:
    """Sums the simulated ``T_all`` of each client query, as the
    in-process workloads do.  A response's ``t_sim_ms`` is the change in
    the one shared simulated clock over the request, which also counts
    what the other worker and the warmer added meanwhile; this reads each
    query's own ``result.t_all_ms`` instead.  Client queries are the ones
    the server's worker threads run (the warmer has its own thread)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.total_ms = 0.0
        self.queries = 0

    def install(self) -> None:
        original = Mediator.query
        tally = self

        @functools.wraps(original)
        def query(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if threading.current_thread().name.startswith("repro-serve-worker"):
                with tally.lock:
                    tally.total_ms += result.t_all_ms
                    tally.queries += 1
            return result

        Mediator.query = query  # type: ignore[method-assign]

    def take(self) -> tuple[float, int]:
        """The totals since the last call, and start counting afresh."""
        with self.lock:
            totals = (self.total_ms, self.queries)
            self.total_ms, self.queries = 0.0, 0
        return totals


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    sims = SimTally()
    sims.install()
    mediator = build_rope_testbed(use_subplan_cache=True)
    server = MediatorServer(
        mediator, config=ServingConfig(workers=WORKERS, warm_threshold=WARM_THRESHOLD)
    ).start()
    reply({"ready": server.address[1]})
    metrics = server.metrics
    before: dict[str, float] = {}
    counters_before: dict[str, float] = {}
    notifies = dropped = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "notify":
            dropped += mediator.notify_source_changed("video", "frames_to_objects")
            notifies += 1
        elif command == "begin":
            notifies = dropped = 0
            before = layers.snapshot(mediator)
            sims.take()
            counters_before = {
                name: metrics.value(name) for name in ("serving.completed", "serving.warmer.warmed")
            }
            if tracer is not None:
                tracer.reset()
                tracer.enabled = True
            reply({"begun": True})
        elif command == "end":
            if tracer is not None:
                tracer.enabled = False
            after = layers.snapshot(mediator)
            sim_total_ms, sim_queries = sims.take()
            completed = int(metrics.value("serving.completed") - counters_before["serving.completed"])
            message: dict[str, Any] = {
                "completed": completed,
                "dials": after["net.calls"] - before["net.calls"],
                "sim_ms_per_query": sim_total_ms / max(sim_queries, 1),
                "notifies": notifies,
                "dropped": dropped,
                "warmed": metrics.value("serving.warmer.warmed")
                - counters_before["serving.warmer.warmed"],
            }
            if tracer is not None:
                self_times = tracer.self_times()
                message["per_layer"] = layers.layer_metrics(
                    mediator, before, after, self_times, completed, notifies, dropped
                )
                message["span_totals"] = self_times
                message["spans"] = len(tracer.spans)
                message["cost_per_span_s"] = tracer.cost_per_span_s()
            reply(message)
        elif command == "drain":
            break
    summary = server.drain()
    if tracer is not None and args.spans:
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.write(args.spans)
    reply({"drained": summary, "peak_rss_mb": common.peak_rss_mb()})


if __name__ == "__main__":
    main()
