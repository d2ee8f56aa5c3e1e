"""The in-process closed-loop workloads: ``paper_stats`` and
``fanout_parallel``.

One client calls ``Mediator.query`` back to back.  The timed phase is a
fixed sequence of queries, run ``REPEATS`` times on freshly set-up
mediators; together the repeats are ``--seconds`` times the workload's
nominal rate, so two versions of the program are measured on the same
work (on ``paper_stats`` latency grows with history, so a fixed time
would hand a faster version a longer history).
Run as its own process (see ``run.py``) under a pinned hash seed; prints
one JSON record as its last line.

Usage: python3 perfbench/inproc.py --workload paper_stats --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import common
import mix

common.import_program()

from repro.core.mediator import Mediator  # noqa: E402
from repro.workloads.datasets import build_rope_testbed  # noqa: E402
from repro.workloads.generators import generate_fanout_workload  # noqa: E402

import layers  # noqa: E402
import tracer as tracing  # noqa: E402

#: set-ups before each repeat (the last one is the repeat's own), spread
#: through the run; the reported ``setup_s`` is their median
SETUPS_PER_REPEAT = {"paper_stats": 2, "fanout_parallel": 1}
#: the timed query sequence is run this many times, each on a freshly
#: set-up mediator, and each query's latency is its best time over the
#: repeats (as ``timeit`` reports the best of its repeats).  The repeats
#: do the same work, so the best time is the program's cost.  On a
#: shared 2-core VM the host's speed swings by up to 1.6× for seconds to
#: tens of seconds at a time; short repeats spread through the run give
#: each query several chances to be timed outside such a stretch
REPEATS = {"paper_stats": 6, "fanout_parallel": 4}
#: workloads whose repeats take turns on the machine's CPUs, each repeat
#: pinned to one.  On a shared VM a CPU can run slow for a minute while
#: another tenant loads its sibling hyperthread, and a single-threaded
#: client stays on one CPU; alternating gives every query samples on
#: each.  ``fanout_parallel`` runs two threads and keeps every CPU
ALTERNATE_CPUS = {"paper_stats": True, "fanout_parallel": False}
#: untimed queries run as part of each set-up (plans, statistics, memo)
WARM_QUERIES = {"paper_stats": 20, "fanout_parallel": 3}
FANOUT_SITE = "cornell"
#: queries per second of ``--seconds``: about the rate this workload
#: runs at on a 2-core VM, so the timed phase lasts about ``--seconds``
QUERIES_PER_SECOND = {"paper_stats": 96, "fanout_parallel": 16}
#: a run stops early past this many times ``--seconds`` (a severe
#: regression must still finish in time to be reported)
OVERRUN = 5.0


def build_paper() -> Mediator:
    return build_rope_testbed()


def build_fanout() -> Mediator:
    generated = generate_fanout_workload(roots=6, fanout=3)
    mediator = Mediator(jobs=2, memoize_calls=True)
    mediator.register_domain(generated.domain, site=FANOUT_SITE, seed=0)
    mediator.load_program(generated.program_text)
    return mediator


def build_oracle(workload: str) -> Mediator:
    """An uncached, statistics-free, sequential mediator over the same
    sources: the reference answers come from the simplest path."""
    plain = dict(record_statistics=False, use_plan_cache=False)
    if workload == "paper_stats":
        return build_rope_testbed(**plain)
    # the sequential engine's per-run memo keeps the 729-answer reference
    # cheap (24 dials instead of 1,092); it shares nothing across queries
    generated = generate_fanout_workload(roots=6, fanout=3)
    oracle = Mediator(memoize_calls=True, **plain)
    oracle.register_domain(generated.domain)
    oracle.load_program(generated.program_text)
    return oracle


def oracle_digests(workload: str) -> tuple[dict[str, str], dict[str, Any]]:
    """Digest per distinct query text, plus the paper's cardinalities."""
    oracle = build_oracle(workload)
    if workload == "paper_stats":
        texts = mix.rope_texts(mix.rope_pool())
    else:
        texts = [mix.fanout_text(c) for c in mix.fanout_pool()]
    digests = {}
    cardinalities: dict[str, Any] = {}
    for text in texts:
        result = oracle.query(text)
        digests[text] = common.digest_answers(result.answers)
        if text in mix.PAPER_CARDINALITIES:
            cardinalities[text] = result.cardinality
    return digests, cardinalities


def setup(build: Callable[[], Mediator], warm: list[str]) -> tuple[Mediator, float, float]:
    """Build the mediator and run the warm-up prefix; returns it with
    the wall seconds taken and the source dials the prefix made."""
    started = time.perf_counter()
    mediator = build()
    for text in warm:
        mediator.query(text)
    return mediator, time.perf_counter() - started, mediator.metrics.value("net.calls")


@dataclass
class Phase:
    """What the timed queries of one run produced."""

    #: one list of per-query latencies per repeat, in sequence order
    repeats: list[list[Optional[float]]] = field(default_factory=list)
    #: wall seconds the repeats took, answer checks included
    timed_s: float = 0.0
    sims: list[float] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


def run_repeat(
    mediator: Mediator, texts: list[str], digests: dict[str, str], phase: Phase, cutoff: float
) -> None:
    """Time ``texts`` on ``mediator`` back to back, adding to ``phase``."""
    before = layers.snapshot(mediator)
    began = time.perf_counter()
    latencies: list[Optional[float]] = []
    for text in texts:
        if time.perf_counter() > cutoff:
            phase.errors.append("run stopped: over time")
            break
        started = time.perf_counter()
        try:
            result = mediator.query(text)
        except Exception as exc:  # a failed query is counted, not fatal
            phase.errors.append(f"{text}: {type(exc).__name__}: {exc}")
            latencies.append(None)
            continue
        latencies.append((time.perf_counter() - started) * 1000.0)
        phase.sims.append(result.t_all_ms)
        # checked between queries, outside the timed window, so no
        # answers are retained and the check is not charged to the program
        if common.digest_answers(result.answers) != digests.get(text):
            phase.wrong.append(text)
    after = layers.snapshot(mediator)
    for name, value in after.items():
        phase.counters[name] = phase.counters.get(name, 0.0) + value - before[name]
    phase.repeats.append(latencies)
    phase.timed_s += time.perf_counter() - began


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("paper_stats", "fanout_parallel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    workload = args.workload
    calibration_start = common.calibrate()

    tracer = None
    if args.trace:
        # installed before any mediator exists, so call sites that bind a
        # method at construction (the CIM's statistics observer) see the
        # wrapper too; it records nothing until enabled
        tracer = tracing.Tracer()
        tracing.install(tracer)

    digests, cardinalities = oracle_digests(workload)
    gc.collect()  # the oracle mediator is garbage from here on
    build = build_paper if workload == "paper_stats" else build_fanout
    draw = mix.paper_queries if workload == "paper_stats" else mix.fanout_queries
    repeats = REPEATS[workload]
    texts = draw(args.seed, max(1, round(args.seconds * QUERIES_PER_SECOND[workload] / repeats)))
    warm = draw(mix.WARM, WARM_QUERIES[workload])
    setup_times = []
    phase = Phase()
    cutoff = time.perf_counter() + min(OVERRUN * args.seconds, 120.0)
    repeat_calibration = []
    cpus = []
    if ALTERNATE_CPUS[workload] and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    for index in range(repeats):
        if cpus:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        repeat_calibration.append(common.calibrate())
        for _ in range(SETUPS_PER_REPEAT[workload]):
            mediator, seconds, warm_dials = setup(build, warm)
            setup_times.append(seconds)
        gc.collect()  # the previous repeat's mediator is garbage from here on
        if tracer is not None:
            tracer.enabled = True
        run_repeat(mediator, texts, digests, phase, cutoff)
        if tracer is not None:
            tracer.enabled = False
    if cpus:
        os.sched_setaffinity(0, set(cpus))

    paper_ok = all(
        cardinalities.get(text, expected) == expected
        for text, expected in mix.PAPER_CARDINALITIES.items()
    ) if workload == "paper_stats" else True
    latencies = common.best_of(phase.repeats)
    completed = len(phase.sims)
    failed = len(phase.errors) + len(phase.wrong)
    attempted = completed + len(phase.errors)
    tail = common.tail(latencies)
    e2e = {
        "setup_s": common.metric(common.median(setup_times), "s"),
        "qps": common.metric(len(latencies) / (sum(latencies) / 1000.0 or 1.0), "1/s"),
        "latency_p50_ms": common.metric(common.median(latencies), "ms"),
        "latency_tail_ms": common.metric(tail["value"], "ms"),
        "latency_late_p50_ms": common.metric(common.median(common.late_slice(latencies)), "ms"),
        "sim_ms_per_query": common.metric(sum(phase.sims) / max(completed, 1), "ms"),
        "dials_per_query": common.metric(phase.counters["net.calls"] / max(completed, 1), "count"),
        "failed_frac": common.metric(failed / max(attempted, 1), "ratio"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
    }
    record: dict[str, Any] = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "correct": failed == 0 and paper_ok,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "tail": {"percentile": tail["percentile"], "samples": tail["samples"]},
        "repeats": repeats,
        "queries_per_repeat": len(texts),
        "timed_s": phase.timed_s,
        "repeat_p50_ms": [common.median([x for x in r if x is not None]) for r in phase.repeats],
        "repeat_calibration_s": repeat_calibration,
        "setup_times_s": setup_times,
        "setup_dials": warm_dials,
        "paper_cardinalities": cardinalities,
        "errors": phase.errors[:5],
        "wrong_answers": phase.wrong[:5],
    }
    if tracer is not None:
        self_times = tracer.self_times()
        zero = dict.fromkeys(phase.counters, 0.0)
        per_layer = layers.layer_metrics(mediator, zero, phase.counters, self_times, completed)
        spans = len(tracer.spans)
        per_layer["trace.spans_per_query"] = spans / max(completed, 1)
        per_layer["trace.overhead_ms_per_query"] = (
            1000.0 * tracer.cost_per_span_s() * spans / max(completed, 1)
        )
        per_layer["trace.latency_p50_ms"] = e2e["latency_p50_ms"]["value"]
        per_layer.update(dict.fromkeys(SERVED_ONLY, 0.0))
        record["per_layer"] = per_layer
        record["span_totals"] = self_times
        os.makedirs(common.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(common.OUT_DIR, f"spans-{workload}.jsonl.gz"))
    record["calibration_s"] = [calibration_start, common.calibrate()]
    print(json.dumps(record))


#: serving-layer figures, absent from an in-process workload
SERVED_ONLY = (
    "serving.wire_ms.p50",
    "serving.wire_ms.tail",
    "serving.queue_wait_ms.p50",
    "serving.queue_wait_ms.tail",
    "serving.service_ms.p50",
    "serving.service_ms.tail",
    "serving.rejected_frac",
    "serving.warmer_warmed",
    "serving.generator_lag_ms",
)

if __name__ == "__main__":
    main()
