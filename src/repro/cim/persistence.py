"""Persistence of the CIM result cache: its record codec and the
snapshot/restore pair the mediator's flush and warm start use.

A warm cache is valuable across mediator sessions (the paper's whole
point is that source calls are expensive).  :func:`save_result_cache`
replaces the backend's ``"cim"`` store with the cache's live entries;
:func:`load_result_records` reads them back for
:meth:`~repro.cim.cache.ResultCache.restore`.  Eviction configuration is
not persisted — it belongs to the cache you restore into.

One cache entry becomes one backend record under the key
``"{domain}:{function}:{json(args)}"`` — the ``domain:function`` lead
is the sharding prefix (:func:`repro.storage.backend.shard_prefix`), the
JSON-encoded argument vector makes the key exact and stable.  Values are
versioned JSON so a format change is detected, not mis-read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.model import GroundCall
from repro.core.terms import Value
from repro.errors import ReproError, StorageError
from repro.serialization import decode_value, encode_value
from repro.storage.backend import STORE_CIM

if TYPE_CHECKING:
    from repro.cim.cache import ResultCache
    from repro.storage.backend import StorageBackend

ENTRY_VERSION = 1


@dataclass(frozen=True)
class CacheRecord:
    """One persisted cache entry, decoded."""

    call: GroundCall
    answers: tuple[Value, ...]
    complete: bool
    stored_at_ms: float
    hits: int


def call_key(call: GroundCall) -> str:
    """The backend key of one ground call (deterministic, exact)."""
    args = json.dumps(
        [encode_value(arg) for arg in call.args],
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return f"{call.domain}:{call.function}:{args}"


def encode_entry(
    call: GroundCall,
    answers: tuple[Value, ...],
    complete: bool,
    stored_at_ms: float,
    hits: int,
) -> bytes:
    payload = {
        "version": ENTRY_VERSION,
        "domain": call.domain,
        "function": call.function,
        "args": [encode_value(arg) for arg in call.args],
        "answers": [encode_value(answer) for answer in answers],
        "complete": complete,
        "stored_at_ms": stored_at_ms,
        "hits": hits,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_entry(data: bytes) -> CacheRecord:
    """Inverse of :func:`encode_entry`; raises on unknown versions."""
    payload = json.loads(data)
    if payload.get("version") != ENTRY_VERSION:
        raise StorageError(
            f"unsupported CIM entry version {payload.get('version')!r}"
        )
    return CacheRecord(
        call=GroundCall(
            payload["domain"],
            payload["function"],
            tuple(decode_value(arg) for arg in payload["args"]),
        ),
        answers=tuple(decode_value(answer) for answer in payload["answers"]),
        complete=bool(payload["complete"]),
        stored_at_ms=float(payload["stored_at_ms"]),
        hits=int(payload["hits"]),
    )


def save_result_cache(cache: "ResultCache", backend: "StorageBackend") -> int:
    """Replace the backend's CIM store with the cache's live entries
    (hit counts included); returns the number written.  Entries dropped
    since the last save are gone from the store afterwards."""
    for key, __ in list(backend.scan_prefix(STORE_CIM, "")):
        backend.delete(STORE_CIM, key)
    count = 0
    for entry in cache:
        backend.put(
            STORE_CIM,
            call_key(entry.call),
            encode_entry(
                entry.call,
                entry.answers,
                entry.complete,
                entry.stored_at_ms,
                entry.hits,
            ),
        )
        count += 1
    return count


def load_result_records(backend: "StorageBackend") -> list[CacheRecord]:
    """Every decodable record in the backend's CIM store.  Undecodable
    records are skipped: the next save replaces the store without
    them."""
    records: list[CacheRecord] = []
    for __, data in backend.scan_prefix(STORE_CIM, ""):
        try:
            records.append(decode_entry(data))
        except (AttributeError, KeyError, TypeError, ValueError, ReproError):
            continue
    return records
