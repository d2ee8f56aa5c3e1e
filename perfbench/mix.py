"""Seeded query draws for the three workloads.

The benchmark owns its input generators (rather than calling the
program's own samplers) so a change to the program cannot change the
inputs it is measured on.  The same seed always gives the same queries.
Set-up warm-up prefixes use the fixed seed ``WARM``, so set-up time
does not depend on the workload seed.
"""

from __future__ import annotations

import bisect
import itertools
import random

#: the paper's query kinds over 'The Rope'.  Neither the paper nor the
#: repository gives a traffic mix, so every stream draws them with equal
#: shares: a neutral assumption, not measured traffic
ROPE_KINDS = ("query1", "query2", "query3", "objects", "actors")
ROPE_POOL_SIZE = 350
#: a frame's last value may pass the video's end (240 frames), which is
#: what the clip equality invariant folds back onto ``Last = 240``
ROPE_MAX_LAST = 300

FANOUT_POOL_SIZE = 24
TENANTS = ("t0", "t1", "t2")
WARM = "warm"

#: the answer cardinalities the paper reports (Figure 5)
PAPER_CARDINALITIES = {
    "?- actors(Actor).": 6,
    "?- objects(4, 47, Object).": 19,
    "?- objects(4, 127, Object).": 24,
}


def rope_text(kind: str, first: int, last: int) -> str:
    if kind == "query1":
        return f"?- query1({first}, {last}, Object, Size)."
    if kind == "query2":
        return f"?- query2({first}, {last}, Object, Frames, Actor)."
    if kind == "query3":
        return f"?- query3({first}, {last}, Object, Actor)."
    if kind == "objects":
        return f"?- objects({first}, {last}, Object)."
    return "?- actors(Actor)."


def rope_pool() -> list[tuple[int, int]]:
    """``ROPE_POOL_SIZE`` distinct frame intervals in a fixed order (the
    order is the Zipf rank on the served workload).  The pool is part of
    the workload's definition, like a dataset; the seed varies the
    queries drawn from it."""
    rng = random.Random("rope-pool")
    pool: set[tuple[int, int]] = set()
    while len(pool) < ROPE_POOL_SIZE:
        first = rng.randint(1, 239)
        last = rng.randint(first + 1, ROPE_MAX_LAST)
        pool.add((first, last))
    ordered = sorted(pool)
    rng.shuffle(ordered)
    return ordered


def rope_texts(pool: list[tuple[int, int]]) -> list[str]:
    """Every distinct query text the Rope draws can produce."""
    texts = {rope_text(kind, f, l) for kind in ROPE_KINDS for f, l in pool}
    return sorted(texts | set(PAPER_CARDINALITIES))


class _Zipf:
    """Rank-weighted distribution: rank ``r`` has weight ``1 / r**skew``."""

    def __init__(self, size: int, skew: float):
        weights = [1.0 / (rank**skew) for rank in range(1, size + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def index_at(self, quantile: float) -> int:
        """The 0-based rank index at ``quantile`` (0 <= quantile < 1)."""
        target = quantile * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, target), len(self.cumulative) - 1)


def paper_queries(seed: "int | str", count: int) -> list[str]:
    """``paper_stats``: ``count`` queries of the paper's kinds over the
    wide pool, both drawn uniformly.

    The draw is stratified: each kind gets an equal share, and request
    ``i`` of a seeded order takes pool interval ``(i + u) / count`` of
    the way along (``u`` seeded), so every seed covers the pool evenly;
    seeds differ in which kind meets which interval and in order."""
    pool = rope_pool()
    rng = random.Random(f"paper-{seed}")
    offset = rng.random()
    intervals = [pool[int((i + offset) * len(pool) / count)] for i in range(count)]
    rng.shuffle(intervals)
    kinds = [ROPE_KINDS[i % len(ROPE_KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    return [rope_text(kind, first, last) for kind, (first, last) in zip(kinds, intervals)]


def served_requests(
    seed: "int | str", phase: str, count: int, kinds: tuple[str, ...] = ROPE_KINDS
) -> list[tuple[str, str]]:
    """``served_cim_churn``: ``count`` (tenant, query text) requests with
    frames drawn Zipf(1.0) from the pool, so hot intervals repeat (exact
    and invariant hits) and the long tail misses.  ``phase`` salts the
    draw per rate."""
    pool = rope_pool()
    zipf = _Zipf(len(pool), 1.0)
    rng = random.Random(f"served-{seed}-{phase}")
    requests = []
    for _ in range(count):
        first, last = pool[zipf.index_at(rng.random())]
        tenant = TENANTS[rng.randrange(len(TENANTS))]
        requests.append((tenant, rope_text(kinds[rng.randrange(len(kinds))], first, last)))
    return requests


def fanout_pool() -> list[str]:
    rng = random.Random("fanout-pool")
    return [f"k{rng.randrange(10**6)}" for _ in range(FANOUT_POOL_SIZE)]


def fanout_text(constant: str) -> str:
    return f"?- fanq('{constant}', O0, O1, O2, O3, O4, O5)."


def fanout_queries(seed: "int | str", count: int) -> list[str]:
    """``fanout_parallel``: ``count`` queries of one fan-out shape, root
    constants drawn uniformly from a seeded pool."""
    pool = fanout_pool()
    rng = random.Random(f"fanout-{seed}")
    return [fanout_text(pool[rng.randrange(len(pool))]) for _ in range(count)]
