"""Shared helpers for the benchmark: paths, statistics, answer digests,
machine-drift calibration and the result line.

Every workload process imports the program under test from ``src/`` of
the checkout it runs in, so the benchmark always measures the tree it
ships with.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Iterable, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: where runs leave their detail records and span files (gitignored)
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")

#: the hash seed every workload process runs under; Python salts str
#: hashes per process, and the simulated sites seed their jitter streams
#: from ``hash(site_name)``, so without a pinned seed simulated times drift
PINNED_HASH_SEED = "0"

#: latency charged to a failed, refused or missing request: it misses
#: every latency limit
FAILED_MS = 1.0e6

#: the served workload's latency limit on ``latency_tail_ms`` (about 20×
#: the cache-hot service p50), which decides ``max_ok_rate_qps``
LATENCY_LIMIT_MS = 25.0


def import_program() -> None:
    """Put the checkout's ``src/`` first on the import path; fail loudly
    when the program is not there (a benchmark-only directory)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def workload_env() -> dict[str, str]:
    """Environment for a workload process: pinned hash seed, the program
    on the path, and no storage override (the default memory mirror)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = PINNED_HASH_SEED
    env["PYTHONPATH"] = SRC
    for name in ("REPRO_STORAGE", "REPRO_STORAGE_PATH"):
        env.pop(name, None)
    return env


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> dict[str, float]:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` samples that is the 11th-largest value, at percentile
    ``100 * (n - 10) / n``; the percentile and the sample count are
    returned with it.  Fewer than 11 samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def best_of(repeats: Sequence[Sequence[Optional[float]]]) -> list[float]:
    """Per position of a repeated sequence, its best latency over the
    repeats; ``None`` marks a failure, which makes the position
    ``FAILED_MS``.  Positions past the shortest repeat are dropped."""
    length = min((len(r) for r in repeats), default=0)
    best = []
    for position in range(length):
        values = [r[position] for r in repeats]
        best.append(FAILED_MS if None in values else min(v for v in values if v is not None))
    return best


def late_slice(values: Sequence[float]) -> list[float]:
    """The final tenth of the samples, in the order they were due — the
    soak window for latency that grows with history."""
    return list(values[-max(1, len(values) // 10):])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: recorded at the start and the
    end of every run so machine drift can be told from a regression."""
    started = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - started


# -- answers ------------------------------------------------------------------


def digest_encoded(answers: Iterable[Any]) -> str:
    """Multiset digest of answers already in wire form (lists of
    ``repro.serialization`` encoded values)."""
    lines = sorted(json.dumps(a, sort_keys=True, separators=(",", ":")) for a in answers)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def digest_answers(answers: Iterable[Sequence[Any]]) -> str:
    """Multiset digest of in-process answer tuples (same as the wire form)."""
    from repro.serialization import encode_value

    return digest_encoded([[encode_value(v) for v in answer] for answer in answers])


# -- output -------------------------------------------------------------------


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def write_record(name: str, record: dict[str, Any]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path
