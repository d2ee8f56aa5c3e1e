"""Persistence round-trip tests: serialization, and the DCSM and CIM
tiers' snapshot/restore over a storage backend."""

import json

import pytest

from repro.cim.cache import ResultCache
from repro.cim.persistence import decode_entry, load_result_records, save_result_cache
from repro.core.model import GroundCall
from repro.core.terms import Row
from repro.dcsm.module import DCSM
from repro.dcsm.patterns import BOUND, CallPattern
from repro.dcsm.persistence import (
    decode_observation,
    load_observations,
    save_observations,
)
from repro.domains.base import CallResult
from repro.errors import ReproError
from repro.serialization import (
    decode_call,
    decode_value,
    encode_call,
    encode_value,
)
from repro.storage import MemoryBackend, SqliteBackend


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -7, 3.25, "", "héllo", ("a", 1), (("x",), 2.5)],
    )
    def test_scalar_and_tuple_round_trip(self, value):
        assert decode_value(json.loads(json.dumps(encode_value(value)))) == value

    def test_row_round_trip(self):
        row = Row([("name", "stewart"), ("frames", (4, 47))])
        encoded = json.loads(json.dumps(encode_value(row)))
        assert decode_value(encoded) == row

    def test_nested_row_in_tuple(self):
        value = (Row([("a", 1)]), "x")
        assert decode_value(encode_value(value)) == value

    def test_unserializable_rejected(self):
        with pytest.raises(ReproError):
            encode_value(object())

    def test_undecodable_rejected(self):
        with pytest.raises(ReproError):
            decode_value({"weird": 1})

    def test_call_round_trip(self):
        call = GroundCall("video", "frames_to_objects", ("rope", 4, 47))
        assert decode_call(encode_call(call)) == call

    def test_malformed_call_rejected(self):
        with pytest.raises(ReproError):
            decode_call({"domain": "d"})


class TestDcsmPersistence:
    def make_trained(self) -> DCSM:
        dcsm = DCSM()
        for arg, card, t_all in [("a", 2, 2.0), ("a", 2, 2.2), ("b", 3, 2.8)]:
            dcsm.record(
                CallResult(
                    call=GroundCall("d1", "p_bf", (arg,)),
                    answers=tuple(range(card)),
                    t_first_ms=t_all / 2,
                    t_all_ms=t_all,
                )
            )
        return dcsm

    def test_round_trip_preserves_estimates(self, tmp_path):
        original = self.make_trained()
        backend = SqliteBackend(tmp_path / "stats.db")
        assert save_observations(original, backend) == 3
        backend.close()

        restored = DCSM()
        backend = SqliteBackend(tmp_path / "stats.db")
        assert restored.restore(load_observations(backend)) == 3
        backend.close()
        pattern = CallPattern("d1", "p_bf", ("a",))
        assert restored.cost(pattern).t_all_ms == pytest.approx(
            original.cost(pattern).t_all_ms
        )
        pattern = CallPattern("d1", "p_bf", (BOUND,))
        assert restored.cost(pattern).cardinality == pytest.approx(
            original.cost(pattern).cardinality
        )

    def test_load_appends(self):
        original = self.make_trained()
        backend = MemoryBackend()
        save_observations(original, backend)
        original.restore(load_observations(backend))  # duplicate the log
        assert original.observation_count() == 6

    def test_version_check(self):
        with pytest.raises(ReproError):
            decode_observation(json.dumps({"version": 99}).encode())


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        cache = ResultCache()
        call = GroundCall("video", "frames_to_objects", ("rope", 4, 47))
        cache.put(call, ("brandon", "phillip"), now_ms=10.0)
        cache.put(
            GroundCall("d", "partial", (1,)), ("x",), now_ms=20.0, complete=False
        )
        backend = SqliteBackend(tmp_path / "cache.db")
        assert save_result_cache(cache, backend) == 2
        backend.close()

        restored = ResultCache()
        backend = SqliteBackend(tmp_path / "cache.db")
        assert restored.restore(load_result_records(backend), now_ms=20.0) == 2
        backend.close()
        entry = restored.get(call)
        assert entry.answers == ("brandon", "phillip")
        assert entry.stored_at_ms == 10.0
        partial = restored.peek(GroundCall("d", "partial", (1,)))
        assert not partial.complete

    def test_load_respects_capacity(self):
        cache = ResultCache()
        for i in range(10):
            cache.put(GroundCall("d", "f", (i,)), (i,))
        backend = MemoryBackend()
        save_result_cache(cache, backend)
        small = ResultCache(max_entries=3)
        small.restore(load_result_records(backend))
        assert len(small) == 3

    def test_ttl_expiry_after_load(self):
        cache = ResultCache()
        cache.put(GroundCall("d", "f", (1,)), (1,), now_ms=0.0)
        backend = MemoryBackend()
        save_result_cache(cache, backend)
        ttl_cache = ResultCache(ttl_ms=100)
        ttl_cache.restore(load_result_records(backend))
        assert ttl_cache.get(GroundCall("d", "f", (1,)), now_ms=500.0) is None

    def test_version_check(self):
        with pytest.raises(ReproError):
            decode_entry(json.dumps({"version": 0}).encode())

    def test_rows_survive(self):
        cache = ResultCache()
        row = Row([("first", 4), ("last", 47)])
        call = GroundCall("video", "object_to_frames", ("rope", "brandon"))
        cache.put(call, (row,))
        backend = MemoryBackend()
        save_result_cache(cache, backend)
        restored = ResultCache()
        restored.restore(load_result_records(backend))
        assert restored.get(call).answers[0].last == 47
