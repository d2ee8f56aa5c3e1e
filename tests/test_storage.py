"""Cache storage backends: round-trips, cross-backend parity, warm
restart, cost-aware eviction, crash consistency, and concurrency."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.cache import POLICY_COST, ResultCache
from repro.cim.persistence import (
    call_key,
    decode_entry,
    encode_entry,
    load_result_records,
    save_result_cache,
)
from repro.core.mediator import Mediator, _default_storage_root
from repro.core.model import GroundCall
from repro.core.plancache import (
    CachedPlan,
    PlanCache,
    load_plan_records,
    save_plan_cache,
)
from repro.core.terms import value_bytes
from repro.dcsm.persistence import decode_observation, encode_observation, observation_key
from repro.dcsm.vectors import CostVector, Observation
from repro.domains.base import CallResult
from repro.errors import ReproError, StorageError
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock
from repro.report import storage_data
from repro.storage import (
    CostFrequencyEvictor,
    MemoryBackend,
    ShardedBackend,
    SqliteBackend,
    StorageBackend,
    atomic_write_bytes,
    make_backend,
    shard_prefix,
)
from repro.workloads.datasets import build_rope_testbed

pytestmark = pytest.mark.storage

STORES = ("cim", "dcsm", "plancache")


def _make(kind: str, tmp_path: Path) -> StorageBackend:
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "kv.db")
    return ShardedBackend(tmp_path / "shards", shards=4)


@pytest.fixture(params=["memory", "sqlite", "sharded"])
def backend(request, tmp_path):
    instance = _make(request.param, tmp_path)
    yield instance
    instance.close()


# -- the protocol, per backend -------------------------------------------------


class TestBackendProtocol:
    def test_round_trip(self, backend):
        backend.put("cim", "d:f:[1]", b"alpha")
        assert backend.get("cim", "d:f:[1]") == b"alpha"
        backend.put("cim", "d:f:[1]", b"beta")  # overwrite
        assert backend.get("cim", "d:f:[1]") == b"beta"
        assert backend.get("cim", "missing") is None

    def test_stores_are_namespaced(self, backend):
        backend.put("cim", "k", b"cim-value")
        backend.put("dcsm", "k", b"dcsm-value")
        assert backend.get("cim", "k") == b"cim-value"
        assert backend.get("dcsm", "k") == b"dcsm-value"
        assert backend.get("plancache", "k") is None
        assert backend.delete("dcsm", "k")
        assert backend.get("cim", "k") == b"cim-value"

    def test_delete(self, backend):
        backend.put("cim", "k", b"v")
        assert backend.delete("cim", "k") is True
        assert backend.delete("cim", "k") is False
        assert backend.get("cim", "k") is None

    def test_scan_prefix_sorted(self, backend):
        for key in ("b:y:2", "a:x:1", "a:x:0", "a:z:9"):
            backend.put("cim", key, key.encode())
        assert [k for k, _ in backend.scan_prefix("cim", "a:x:")] == [
            "a:x:0",
            "a:x:1",
        ]
        assert [k for k, _ in backend.scan_prefix("cim", "")] == [
            "a:x:0",
            "a:x:1",
            "a:z:9",
            "b:y:2",
        ]

    def test_rollback_returns_to_the_last_flush(self, backend):
        backend.put("cim", "a:f:1", b"kept")
        backend.put("cim", "a:f:2", b"kept")
        backend.flush()
        backend.delete("cim", "a:f:1")
        backend.put("cim", "a:f:2", b"dropped")
        backend.put("dcsm", "a:f:3", b"dropped")
        backend.rollback()
        assert list(backend.scan_prefix("cim", "")) == [
            ("a:f:1", b"kept"),
            ("a:f:2", b"kept"),
        ]
        assert list(backend.scan_prefix("dcsm", "")) == []

    def test_use_after_close_raises(self, backend):
        backend.put("cim", "k", b"v")
        backend.close()
        with pytest.raises(StorageError):
            backend.put("cim", "k2", b"v")
        with pytest.raises(StorageError):
            backend.get("cim", "k")
        backend.close()  # idempotent

    def test_metrics_accounting(self, tmp_path, backend):
        registry = MetricsRegistry()
        backend.metrics = registry
        backend.put("cim", "k", b"12345")
        backend.get("cim", "k")
        backend.delete("cim", "k")
        backend.flush()
        assert registry.value("storage.writes") == 1
        assert registry.value("storage.bytes_written") == 5
        assert registry.value("storage.reads") == 1
        assert registry.value("storage.bytes_read") == 5
        assert registry.value("storage.deletes") == 1
        assert registry.value("storage.flushes") == 1


class TestMakeBackend:
    def test_specs(self, tmp_path):
        assert make_backend("memory").kind == "memory"
        sqlite = make_backend(f"sqlite:{tmp_path / 'a.db'}")
        assert sqlite.kind == "sqlite"
        sqlite.close()
        sharded = make_backend(f"sharded:{tmp_path / 'seg'}:5")
        assert sharded.kind == "sharded"
        assert sharded.shards == 5
        sharded.close()

    @pytest.mark.parametrize(
        "spec", ["memory:/nope", "sqlite", "sharded", "redis:host", ""]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(StorageError):
            make_backend(spec)


# -- durability across reopen --------------------------------------------------


@pytest.mark.parametrize("kind", ["sqlite", "sharded"])
def test_reopen_restores_state(kind, tmp_path):
    first = _make(kind, tmp_path)
    for store in STORES:
        for i in range(10):
            first.put(store, f"d:f:{i}", f"{store}-{i}".encode())
    first.delete("cim", "d:f:3")
    first.close()

    second = _make(kind, tmp_path)
    assert second.get("cim", "d:f:3") is None
    assert second.get("cim", "d:f:7") == b"cim-7"
    assert len(list(second.scan_prefix("dcsm", ""))) == 10
    second.close()


def test_sharded_meta_pins_shard_count(tmp_path):
    first = ShardedBackend(tmp_path, shards=3)
    first.put("cim", "d:f:1", b"v")
    first.close()
    # asking for a different count on reopen must not remap existing keys
    second = ShardedBackend(tmp_path, shards=16)
    assert second.shards == 3
    assert second.get("cim", "d:f:1") == b"v"
    second.close()


def test_sharded_routes_by_source_function(tmp_path):
    backend = ShardedBackend(tmp_path, shards=8)
    for i in range(20):
        backend.put("cim", f"video:frames:{i}", b"x")
    backend.flush()
    segments_with_data = [
        path
        for path in sorted(tmp_path.glob("segment-*.json"))
        if json.loads(path.read_bytes()).get("stores")
    ]
    # every entry of one (domain, function) lives in exactly one segment
    assert len(segments_with_data) == 1
    stores = json.loads(segments_with_data[0].read_bytes())["stores"]
    assert len(stores["cim"]) == 20


def test_shard_prefix_convention():
    assert shard_prefix("video:frames:[1,2]") == "video:frames"
    assert shard_prefix("video:frames:a:b") == "video:frames"
    assert shard_prefix("no-colons") == "no-colons"
    assert shard_prefix("one:part") == "one:part"


def test_sqlite_scan_does_not_treat_prefix_as_pattern(tmp_path):
    backend = SqliteBackend(tmp_path / "kv.db")
    backend.put("cim", "a_b:f:1", b"x")
    backend.put("cim", "axb:f:1", b"y")
    backend.put("cim", "a%:f:1", b"z")
    assert [k for k, _ in backend.scan_prefix("cim", "a_b")] == ["a_b:f:1"]
    assert [k for k, _ in backend.scan_prefix("cim", "a%")] == ["a%:f:1"]
    backend.close()


# -- cross-backend parity (property-based) -------------------------------------

_KEYS = st.sampled_from(
    [f"{d}:{f}:{i}" for d in "ab" for f in "xy" for i in range(3)]
    + ["plain", "meta:only"]
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(STORES),
        _KEYS,
        st.binary(max_size=16),
    ),
    max_size=40,
)


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
def test_backends_agree_with_model(ops, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("parity")
    backends = [_make(kind, tmp) for kind in ("memory", "sqlite", "sharded")]
    model: dict[str, dict[str, bytes]] = {store: {} for store in STORES}
    try:
        for op, store, key, value in ops:
            if op == "put":
                model[store][key] = value
                for backend in backends:
                    backend.put(store, key, value)
            else:
                expected = model[store].pop(key, None) is not None
                for backend in backends:
                    assert backend.delete(store, key) is expected
        for store in STORES:
            expected_items = sorted(model[store].items())
            for backend in backends:
                assert list(backend.scan_prefix(store, "")) == expected_items
                for key, value in expected_items:
                    assert backend.get(store, key) == value
                assert list(backend.scan_prefix(store, "a:x")) == [
                    (k, v) for k, v in expected_items if k.startswith("a:x")
                ]
    finally:
        for backend in backends:
            backend.close()


# -- warm start restores exactly what was flushed (property-based) -------------

_TIER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("get"), st.integers(0, 5)),
        st.tuples(st.just("invalidate"), st.integers(0, 5)),
        st.tuples(st.just("invalidate_function"), st.sampled_from(["f", "g"])),
        st.tuples(
            st.just("record"), st.sampled_from(["f", "g"]), st.integers(0, 2), st.booleans()
        ),
    ),
    min_size=8,
    max_size=40,
)


def _tier_call(i: int) -> GroundCall:
    return GroundCall("d", "fg"[i % 2], (i,))


def _cim_state(mediator: Mediator, clamp_ms: float) -> dict:
    return {
        entry.call: (
            entry.answers,
            entry.complete,
            entry.hits,
            min(entry.stored_at_ms, clamp_ms),
        )
        for entry in mediator.cim.cache
    }


def _dcsm_state(mediator: Mediator) -> dict:
    database = mediator.dcsm.database
    return {key: database.observations(*key) for key in database.functions()}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["memory", "sqlite", "sharded"]),
    ops=_TIER_OPS,
    restart_ms=st.sampled_from([0.0, 10.0, 1000.0]),
)
def test_warm_start_restores_the_flushed_state(kind, ops, restart_ms, tmp_path_factory):
    """After random CIM puts, hits, invalidations and capacity evictions
    and DCSM records under a per-function cap, a warm-started mediator
    holds exactly the state the first one flushed (stored timestamps
    clamped to the new clock)."""
    tmp = tmp_path_factory.mktemp("tiers")
    spec = {
        "memory": MemoryBackend(),
        "sqlite": f"sqlite:{tmp / 'tiers.db'}",
        "sharded": f"sharded:{tmp / 'tiers'}",
    }[kind]
    first = Mediator(storage=spec)
    first.cim.cache.max_entries = 4
    first.dcsm.database.max_observations_per_function = 3
    cache = first.cim.cache
    for op in ops:
        first.clock.advance(1.0)
        now = first.clock.now_ms
        if op[0] == "put":
            cache.put(
                _tier_call(op[1]), tuple(range(op[2])), now_ms=now, complete=op[3]
            )
        elif op[0] == "get":
            cache.get(_tier_call(op[1]), now_ms=now)
        elif op[0] == "invalidate":
            cache.invalidate(_tier_call(op[1]))
        elif op[0] == "invalidate_function":
            cache.invalidate_function("d", op[1])
        else:
            first.dcsm.record(
                CallResult(
                    call=GroundCall("d", op[1], (op[2],)),
                    answers=("x",) * op[2],
                    t_first_ms=1.0,
                    t_all_ms=float(now),
                    complete=op[3],
                )
            )
    first.flush_storage()
    expected_cim = _cim_state(first, restart_ms)
    expected_dcsm = _dcsm_state(first)
    if kind != "memory":  # closing the memory backend drops the table
        first.close()

    warm = Mediator(storage=spec, clock=SimClock(restart_ms), warm_start=True)
    assert _cim_state(warm, float("inf")) == expected_cim
    assert _dcsm_state(warm) == expected_dcsm
    warm.close()


# -- crash consistency ---------------------------------------------------------


def test_atomic_write_survives_failed_writer(tmp_path, monkeypatch):
    """A writer that dies mid-replace must leave the old snapshot intact
    and no temp litter behind (the torn-write regression)."""
    target = tmp_path / "snapshot.json"
    atomic_write_bytes(target, b'{"generation": 1}')

    def exploding_replace(src, dst):
        raise OSError("simulated crash during rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b'{"generation": 2}')
    monkeypatch.undo()
    assert target.read_bytes() == b'{"generation": 1}'
    assert list(tmp_path.glob("*.tmp")) == []


def test_sqlite_survives_process_kill(tmp_path):
    """Flushed state survives a writer that dies without closing; the
    uncommitted tail is dropped, never a corrupt database."""
    db = tmp_path / "crash.db"
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from repro.storage.sqlite import SqliteBackend\n"
        f"b = SqliteBackend({str(db)!r})\n"
        "for i in range(100):\n"
        "    b.put('cim', f'd:f:{i:03d}', b'durable')\n"
        "b.flush()\n"
        "for i in range(100, 150):\n"
        "    b.put('cim', f'd:f:{i:03d}', b'torn')\n"
        "os._exit(1)\n"  # crash: no commit, no close
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 1
    reopened = SqliteBackend(db)
    survivors = dict(reopened.scan_prefix("cim", ""))
    assert len(survivors) == 100
    assert all(value == b"durable" for value in survivors.values())
    reopened.close()


def test_sqlite_snapshot_commits_whole_or_not_at_all(tmp_path):
    """A flush that rewrites a store (delete every key, put every key)
    is one transaction: a writer killed before flushing leaves the
    previous snapshot intact, even past 256 pending mutations."""
    db = tmp_path / "snapshot.db"
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from repro.storage.sqlite import SqliteBackend\n"
        f"b = SqliteBackend({str(db)!r})\n"
        "for i in range(300):\n"
        "    b.put('cim', f'd:f:{i:03d}', b'first')\n"
        "b.flush()\n"
        "for i in range(300):\n"
        "    b.delete('cim', f'd:f:{i:03d}')\n"
        "    b.put('cim', f'd:f:{i:03d}', b'second')\n"
        "os._exit(1)\n"  # crash before the snapshot's flush
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 1
    reopened = SqliteBackend(db)
    survivors = dict(reopened.scan_prefix("cim", ""))
    assert len(survivors) == 300
    assert all(value == b"first" for value in survivors.values())
    reopened.close()


def test_sharded_flush_is_atomic_per_segment(tmp_path, monkeypatch):
    backend = ShardedBackend(tmp_path, shards=2)
    backend.put("cim", "d:f:1", b"old")
    backend.flush()
    backend.put("cim", "d:f:1", b"new")

    def exploding_replace(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        backend.flush()
    monkeypatch.undo()
    # the on-disk segment still holds the previous complete generation
    fresh = ShardedBackend(tmp_path)
    assert fresh.get("cim", "d:f:1") == b"old"
    fresh.close()


# -- concurrency ---------------------------------------------------------------


def test_sqlite_backend_thread_hammer(tmp_path):
    backend = SqliteBackend(tmp_path / "hammer.db")
    errors: list[BaseException] = []
    threads = 16
    per_thread = 60

    def worker(worker_id: int) -> None:
        try:
            for i in range(per_thread):
                key = f"d:f:{worker_id:02d}-{i:03d}"
                backend.put("cim", key, f"{worker_id}/{i}".encode())
                assert backend.get("cim", key) == f"{worker_id}/{i}".encode()
                backend.put("dcsm", f"shared:k:{i}", bytes([worker_id]))
                if i % 7 == 0:
                    backend.delete("cim", key)
                if i % 13 == 0:
                    list(backend.scan_prefix("cim", f"d:f:{worker_id:02d}-"))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []
    backend.flush()
    kept = dict(backend.scan_prefix("cim", ""))
    expected_per_thread = per_thread - len(range(0, per_thread, 7))
    assert len(kept) == threads * expected_per_thread
    # every shared key holds the last write of *some* worker
    shared = dict(backend.scan_prefix("dcsm", ""))
    assert len(shared) == per_thread
    assert all(value[0] < threads for value in shared.values())
    backend.close()


# -- codecs --------------------------------------------------------------------


def test_cim_codec_round_trip():
    call = GroundCall("video", "frames_to_objects", ("rope", 4, 47))
    blob = encode_entry(call, ("brandon", "rupert"), True, 12.5, 3)
    record = decode_entry(blob)
    assert record.call == call
    assert record.answers == ("brandon", "rupert")
    assert record.complete is True
    assert record.stored_at_ms == 12.5
    assert record.hits == 3
    assert call_key(call).startswith("video:frames_to_objects:")
    assert shard_prefix(call_key(call)) == "video:frames_to_objects"


def test_cim_codec_rejects_unknown_version():
    blob = json.dumps({"version": 999}).encode()
    with pytest.raises(StorageError):
        decode_entry(blob)


def test_dcsm_codec_round_trip():
    observation = Observation(
        call=GroundCall("d", "f", (1, "a")),
        vector=CostVector(t_first_ms=1.0, t_all_ms=5.0, cardinality=3.0),
        record_time_ms=100.0,
        complete=True,
    )
    assert decode_observation(encode_observation(observation)) == observation
    assert observation_key("d", "f", 7) == "d:f:0000000007"


def test_load_drops_undecodable_records(tmp_path):
    backend = MemoryBackend()
    cache = ResultCache()
    call = GroundCall("d", "f", (1,))
    cache.put(call, ("x",), now_ms=1.0)
    save_result_cache(cache, backend)
    backend.put("cim", "d:f:garbage", b"not json")
    fresh = ResultCache()
    assert fresh.restore(load_result_records(backend), now_ms=1.0) == 1
    assert fresh.peek(call) is not None
    save_result_cache(fresh, backend)
    assert backend.get("cim", "d:f:garbage") is None  # dropped, not replayed


# -- cost-aware eviction -------------------------------------------------------


def _call(name: str) -> GroundCall:
    return GroundCall("d", name, (1,))


class TestCostAwareEviction:
    def test_cheap_entries_evicted_before_expensive(self):
        costs = {"cheap": 1.0, "mid": 50.0, "dear": 500.0}
        cache = ResultCache(
            max_entries=2,
            policy=POLICY_COST,
            evictor=CostFrequencyEvictor(lambda call: costs[call.function]),
        )
        cache.put(_call("dear"), ("aaaa",), now_ms=0.0)
        cache.put(_call("cheap"), ("bbbb",), now_ms=1.0)
        cache.put(_call("mid"), ("cccc",), now_ms=2.0)  # forces one eviction
        assert cache.peek(_call("cheap")) is None  # lowest cost density left first
        assert cache.peek(_call("dear")) is not None
        assert cache.peek(_call("mid")) is not None

    def test_rarely_hit_entries_evicted_first(self):
        cache = ResultCache(
            max_entries=2,
            policy=POLICY_COST,
            evictor=CostFrequencyEvictor(lambda call: 10.0),  # equal costs
        )
        hot, cold = _call("hot"), _call("cold")
        cache.put(hot, ("aaaa",), now_ms=0.0)
        cache.put(cold, ("bbbb",), now_ms=1.0)
        for _ in range(5):
            cache.get(hot, now_ms=2.0)
        cache.put(_call("new"), ("cccc",), now_ms=3.0)
        assert cache.peek(cold) is None  # same cost, fewer hits: out first
        assert cache.peek(hot) is not None

    def test_byte_budget_keeps_high_value_entries(self):
        costs = {"dear": 1000.0, "cheap": 1.0}
        budget = value_bytes("x" * 64) * 3
        cache = ResultCache(
            max_bytes=budget,
            policy=POLICY_COST,
            evictor=CostFrequencyEvictor(
                lambda call: costs.get(call.function, 1.0)
            ),
        )
        cache.put(_call("dear"), ("x" * 64,), now_ms=0.0)
        for i in range(6):
            cache.put(GroundCall("d", "cheap", (i,)), ("x" * 64,), now_ms=float(i))
        assert cache.peek(_call("dear")) is not None
        assert cache.total_bytes <= budget

    def test_unpriceable_calls_fall_back_to_default(self):
        evictor = CostFrequencyEvictor(lambda call: None, default_cost_ms=2.0)
        assert evictor.recompute_cost_ms(_call("f")) == 2.0
        evictor = CostFrequencyEvictor(lambda call: -5.0, default_cost_ms=2.0)
        assert evictor.recompute_cost_ms(_call("f")) == 2.0

    def test_mediator_cache_max_bytes_enables_cost_policy(self, tmp_path):
        mediator = Mediator(storage="memory", cache_max_bytes=4096)
        assert mediator.cim.cache.policy == POLICY_COST
        assert mediator.cim.cache.max_bytes == 4096
        assert mediator.cim.cache.evictor is not None
        mediator.close()


# -- warm restart through the mediator -----------------------------------------


@pytest.mark.parametrize("kind", ["sqlite", "sharded"])
def test_mediator_warm_restart(kind, tmp_path):
    spec = (
        f"sqlite:{tmp_path / 'warm.db'}"
        if kind == "sqlite"
        else f"sharded:{tmp_path / 'warm'}"
    )
    cold = build_rope_testbed(storage=spec)
    cold_result = cold.query("?- actors(A).", use_cim=True)
    cold.query("?- actors(A).", use_cim=True)  # second pass caches the plan
    cold_calls = cold.cim.stats.real_calls
    assert cold_calls > 0
    cold.close()

    warm = build_rope_testbed(storage=spec, warm_start=True)
    assert warm.metrics.value("storage.warm_start.entries_loaded") > 0
    assert warm.metrics.value("storage.warm_start.cim_entries") > 0
    assert warm.metrics.value("storage.warm_start.dcsm_observations") > 0
    assert warm.metrics.value("storage.warm_start.plans_adopted") >= 1
    warm_result = warm.query("?- actors(A).", use_cim=True)
    # answer parity with the cold run, served without any real call
    assert sorted(warm_result.execution.answers) == sorted(
        cold_result.execution.answers
    )
    assert warm.cim.stats.real_calls == 0
    assert warm.cim.cache.stats.exact_hits > 0
    assert warm.metrics.value("planner.plan_cache_hits") >= 1
    warm.close()


def test_warm_restart_drops_plans_for_changed_program(tmp_path):
    spec = f"sqlite:{tmp_path / 'warm.db'}"
    cold = build_rope_testbed(storage=spec)
    cold.query("?- actors(A).", use_cim=True)
    cold.query("?- actors(A).", use_cim=True)
    cold.close()

    warm = build_rope_testbed(storage=spec, warm_start=True)
    # changing the program after adoption invalidates via the epoch; a
    # *different* program at load time must never adopt at all
    assert warm.metrics.value("storage.warm_start.plans_adopted") >= 1
    warm.close()

    other = Mediator(storage=spec, warm_start=True)
    other.load_program("other(X) :- in(X, d:f('a')).")
    assert other.metrics.value("storage.warm_start.plans_adopted") == 0
    assert len(other.plan_cache) == 0
    other.flush_storage()
    assert other.metrics.value("storage.warm_start.plans_dropped") >= 1
    other.close()


def test_default_mediator_has_no_backend(monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    mediator = build_rope_testbed()
    assert mediator.storage is None
    mediator.query("?- actors(A).", use_cim=True)
    mediator.query("?- actors(A).", use_cim=True)
    mediator.flush_storage()
    assert mediator.metrics.value("storage.writes") == 0
    assert storage_data(mediator)["kind"] == "none"
    mediator.close()
    assert mediator.closed
    with pytest.raises(ReproError):
        mediator.flush_storage()
    with pytest.raises(StorageError):
        Mediator(warm_start=True)


def test_env_variable_selects_backend(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORAGE", "sqlite")
    monkeypatch.setenv("REPRO_STORAGE_PATH", str(tmp_path))
    first = Mediator()
    second = Mediator()
    assert first.storage.kind == "sqlite"
    assert str(first.storage.path).startswith(str(tmp_path))
    # each mediator gets its own file: no cross-talk between instances
    assert first.storage.path != second.storage.path
    first.close()
    second.close()


def test_explicit_backend_instance_is_used(tmp_path):
    backend = MemoryBackend()
    mediator = Mediator(storage=backend)
    assert mediator.storage is backend
    assert backend.metrics is mediator.metrics
    mediator.close()


def test_close_detaches_and_keeps_mediator_usable(m1_mediator):
    m1_mediator.query("?- m(A, C).")
    m1_mediator.close()
    result = m1_mediator.query("?- m(A, C).")  # still answers after close
    assert len(result.execution.answers) == 3
    m1_mediator.close()  # idempotent


# -- persistence staleness regressions -----------------------------------------


def _plan_entry(epoch: int, version: int, value_dependent: bool = False) -> CachedPlan:
    return CachedPlan(
        template=None,
        vector=None,
        params=(),
        sources=frozenset(),
        epoch=epoch,
        dcsm_version=version,
        value_dependent=value_dependent,
    )


def test_save_plan_cache_skips_lazily_invalidated_entries():
    """Plan-cache invalidation is lazy: entries from an older epoch (or
    DCSM version) sit in memory until looked up.  The snapshot must not
    persist them under the current fingerprint — that would resurrect a
    stale plan on warm restart."""
    backend = MemoryBackend()
    cache = PlanCache()
    cache.put("live", _plan_entry(2, 7))
    cache.put("stale-epoch", _plan_entry(1, 7))
    cache.put("stale-version", _plan_entry(2, 6))
    # markers carry no prices: epoch applies, the DCSM version does not
    cache.put("stale-marker", _plan_entry(1, 7, value_dependent=True))
    cache.put("live-marker", _plan_entry(2, 3, value_dependent=True))
    written = save_plan_cache(cache, backend, "fp", epoch=2, dcsm_version=7)
    assert written == 2
    records = load_plan_records(backend)
    assert sorted(record.key for record in records) == ["live", "live-marker"]
    assert all(record.fingerprint == "fp" for record in records)


def test_flush_never_persists_plans_predating_a_program_change(tmp_path):
    spec = f"sqlite:{tmp_path / 'stale.db'}"
    cold = build_rope_testbed(storage=spec)
    cold.query("?- actors(A).", use_cim=True)
    cold.query("?- actors(A).", use_cim=True)  # second pass caches the plan
    assert len(cold.plan_cache) >= 1
    # bump the plan epoch *after* the plan was cached; lazy invalidation
    # leaves the now-stale entry sitting in the cache
    cold.add_rule("extra(X) :- actors(X).")
    assert len(cold.plan_cache) >= 1
    cold.close()

    warm = build_rope_testbed(storage=spec, warm_start=True)
    # reach the exact program the cold session flushed under: a plan
    # planned without the extra rule must not have been persisted as if
    # it had been planned with it
    warm.add_rule("extra(X) :- actors(X).")
    assert warm.metrics.value("storage.warm_start.plans_adopted") == 0
    assert len(warm.plan_cache) == 0
    warm.close()


def _record(mediator: Mediator, i: int) -> None:
    mediator.dcsm.record(
        CallResult(
            call=GroundCall("d", "f", (i,)),
            answers=("x",),
            t_first_ms=1.0,
            t_all_ms=5.0,
        )
    )
    mediator.cim.cache.put(GroundCall("d", "g", (i,)), (f"v{i}",))


def _persisted(spec: str) -> tuple[list[int], list[int]]:
    """The observation and cache-entry arguments a warm start reloads."""
    mediator = Mediator(storage=spec, warm_start=True)
    observed = [obs.call.args[0] for obs in mediator.dcsm.database.observations("d", "f")]
    cached = sorted(entry.call.args[0] for entry in mediator.cim.cache)
    mediator.close()
    return observed, cached


def test_cold_flush_replaces_the_store_warm_flush_extends_it(tmp_path):
    """Every tier snapshots at flush: a session that did not warm-start
    replaces what an earlier session stored, and a warm-started one
    stores the old state plus its own."""
    spec = f"sqlite:{tmp_path / 'replace.db'}"
    first = Mediator(storage=spec)
    for i in range(3):
        _record(first, i)
    first.close()
    assert _persisted(spec) == ([0, 1, 2], [0, 1, 2])

    cold = Mediator(storage=spec)  # no warm start
    _record(cold, 99)
    cold.close()
    assert _persisted(spec) == ([99], [99])

    warm = Mediator(storage=spec, warm_start=True)
    _record(warm, 100)
    warm.close()
    assert _persisted(spec) == ([99, 100], [99, 100])


@pytest.mark.parametrize("kind", ["sqlite", "sharded"])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_flush_keeps_the_previous_snapshot(kind, error, tmp_path, monkeypatch):
    """A tier save that raises partway through close() — after the CIM
    and DCSM stores were already rewritten — must leave the previous
    snapshot on disk, not commit the half-written one."""
    spec = (
        f"sqlite:{tmp_path / 'partial.db'}"
        if kind == "sqlite"
        else f"sharded:{tmp_path / 'partial'}"
    )
    first = Mediator(storage=spec)
    for i in range(3):
        _record(first, i)
    first.close()

    second = Mediator(storage=spec, warm_start=True)
    for i in range(3, 6):
        _record(second, i)

    def failing_save(*args, **kwargs):
        raise error("plan cache save failed")

    monkeypatch.setattr("repro.core.mediator.save_plan_cache", failing_save)
    with pytest.raises(error):
        second.close()
    monkeypatch.undo()
    assert _persisted(spec) == ([0, 1, 2], [0, 1, 2])


def test_load_evictions_delete_backend_records():
    """Entries evicted while restoring into a smaller cache must leave
    the backend at the next save, or dead records are re-read and
    re-evicted on every warm start forever."""
    backend = MemoryBackend()
    seeder = ResultCache()
    for i in range(6):
        seeder.put(GroundCall("d", "f", (i,)), (f"v{i}",), now_ms=float(i))
    assert save_result_cache(seeder, backend) == 6
    assert len(list(backend.scan_prefix("cim", ""))) == 6

    small = ResultCache(max_entries=2)
    assert small.restore(load_result_records(backend)) == 6
    assert len(small) == 2
    save_result_cache(small, backend)
    survivors = {key for key, __ in backend.scan_prefix("cim", "")}
    assert survivors == {call_key(entry.call) for entry in small}


def test_restored_entries_expire_under_the_new_clock():
    """The simulated clock restarts near zero: a restored stored_at_ms
    from late in the previous session must be clamped, or TTL expiry
    (now - stored_at >= ttl) never fires."""
    backend = MemoryBackend()
    old = ResultCache(ttl_ms=100.0)
    call = GroundCall("d", "f", (1,))
    old.put(call, ("x",), now_ms=5000.0)  # late in the previous session
    save_result_cache(old, backend)

    fresh = ResultCache(ttl_ms=100.0)
    assert fresh.restore(load_result_records(backend), now_ms=0.0) == 1
    assert fresh.get(call, now_ms=50.0) is not None  # young under the new clock
    assert fresh.get(call, now_ms=150.0) is None  # expired under the new clock


def test_default_storage_root_is_private_and_user_owned(monkeypatch, tmp_path):
    """Plan records are pickled, so the default storage location is a
    trust boundary: never the shared temp dir itself, always a 0700
    directory owned by the current user."""
    monkeypatch.delenv("REPRO_STORAGE_PATH", raising=False)
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    root = Path(_default_storage_root())
    assert root != tmp_path  # a private subdirectory, not the shared dir
    assert root.is_dir()
    assert stat.S_IMODE(os.stat(root).st_mode) == 0o700
    if hasattr(os, "getuid"):
        assert os.stat(root).st_uid == os.getuid()
