"""Run the mediator benchmark.

    python3 perfbench/run.py --workload paper_stats --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process under a pinned ``PYTHONHASHSEED``
(``common.PINNED_HASH_SEED``).  The end-to-end metrics are printed as a
table, every answer is checked against an uncached oracle, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` list of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` list with ``--trace 1``.  A full
record of each run (every metric, tail percentile and sample count,
machine-drift calibration, spans in traced runs) is written under
``.perfbench_runs/``.  ``--workload all`` runs every workload, and with
``--trace 1`` also reports the tracing overhead (traced minus untraced).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any

import common

WORKLOADS = {
    "paper_stats": ["inproc.py", "--workload", "paper_stats"],
    "fanout_parallel": ["inproc.py", "--workload", "fanout_parallel"],
    "served_cim_churn": ["served.py"],
}
#: every end-to-end metric, in table order (the served-only ones last)
TABLE = (
    "setup_s", "qps", "latency_p50_ms", "latency_tail_ms", "latency_late_p50_ms",
    "sim_ms_per_query", "dials_per_query", "failed_frac", "peak_rss_mb",
    "max_ok_rate_qps", "latency_p50_ms.low", "latency_tail_ms.low",
    "latency_p50_ms.high", "latency_tail_ms.high",
)
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict[str, Any]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Run one workload process and return its record."""
    script, *rest = WORKLOADS[workload]
    command = [sys.executable, os.path.join(common.HERE, script), *rest,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=common.workload_env(),
        cwd=common.ROOT, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {workload} did not finish in {CHILD_TIMEOUT_S:.0f}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} failed (exit {proc.returncode})")
    record = json.loads(lines[-1])
    common.write_record(f"{workload}-seed{seed}-trace{trace}.json", record)
    return record


def print_table(record: dict[str, Any]) -> None:
    e2e = record["end_to_end"]
    tail = record["tail"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"PYTHONHASHSEED={record['python_hash_seed']} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name in TABLE:
        if name in e2e:
            print(f"  {name:24s} {e2e[name]['value']:14.4f} {e2e[name]['unit']}")
        else:
            print(f"  {name:24s} {'n/a':>14s} (served workload only)")
    print(f"  tail percentile {tail['percentile']:.2f} over {tail['samples']} samples; "
          f"calibration loop {record['calibration_s'][0]:.3f}s -> {record['calibration_s'][1]:.3f}s")


def print_layers(record: dict[str, Any]) -> None:
    print(f"-- per-layer, {record['workload']}")
    for name, value in record["per_layer"].items():
        print(f"  {name:36s} {value:14.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        raise SystemExit(f"perfbench: no program under {common.SRC}")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    records = []
    for workload in names:
        record = run_workload(workload, args.seed, seconds, args.trace)
        if args.workload == "all" and args.trace:
            untraced = run_workload(workload, args.seed, seconds, 0)
            print_table(untraced)
            print_layers(record)
            for name in ("latency_p50_ms", "latency_tail_ms", "qps"):
                delta = record["end_to_end"][name]["value"] - untraced["end_to_end"][name]["value"]
                print(f"  tracing overhead {name:18s} {delta:+.4f} {record['end_to_end'][name]['unit']}")
        else:
            print_table(record)
            if args.trace:
                print_layers(record)
        records.append(record)
    metrics: dict[str, Any] = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for entry in chosen:
            name = entry["name"]
            value = record["per_layer"][name] if args.trace else record["end_to_end"][name]["value"]
            metrics[prefix + name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
