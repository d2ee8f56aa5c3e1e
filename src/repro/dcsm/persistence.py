"""Persistence of the DCSM statistics cache: its observation codec and
the snapshot/restore pair the mediator's flush and warm start use.

The cost-vector database is the DCSM's source of truth (summary tables
are derived), so persisting the observation log is enough to restore any
mode.  :func:`save_observations` replaces the backend's ``"dcsm"`` store
with the in-memory log; :func:`load_observations` reads it back for
:meth:`~repro.dcsm.module.DCSM.restore`.

One observation becomes one backend record under the key
``"{domain}:{function}:{seq:010d}"`` — the ``domain:function`` lead is
the sharding prefix, and the zero-padded position in the function's
bucket makes lexicographic key order reproduce recording order (the
per-function caps trim the oldest observations first).  Values are
versioned JSON; unknown versions are rejected loudly rather than
mis-read.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.core.model import GroundCall
from repro.dcsm.vectors import CostVector, Observation
from repro.errors import ReproError, StorageError
from repro.serialization import decode_call, encode_call
from repro.storage.backend import STORE_DCSM

if TYPE_CHECKING:
    from repro.dcsm.module import DCSM
    from repro.storage.backend import StorageBackend

OBSERVATION_VERSION = 1


def observation_key(domain: str, function: str, seq: int) -> str:
    return f"{domain}:{function}:{seq:010d}"


def encode_observation(obs: Observation) -> bytes:
    payload = {
        "version": OBSERVATION_VERSION,
        "call": encode_call(obs.call),
        "t_first_ms": obs.vector.t_first_ms,
        "t_all_ms": obs.vector.t_all_ms,
        "cardinality": obs.vector.cardinality,
        "record_time_ms": obs.record_time_ms,
        "complete": obs.complete,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_observation(data: bytes) -> Observation:
    payload = json.loads(data)
    if payload.get("version") != OBSERVATION_VERSION:
        raise StorageError(
            f"unsupported DCSM observation version {payload.get('version')!r}"
        )
    call: GroundCall = decode_call(payload["call"])
    return Observation(
        call=call,
        vector=CostVector(
            t_first_ms=payload["t_first_ms"],
            t_all_ms=payload["t_all_ms"],
            cardinality=payload["cardinality"],
        ),
        record_time_ms=payload["record_time_ms"],
        complete=payload["complete"],
    )


def save_observations(dcsm: "DCSM", backend: "StorageBackend") -> int:
    """Replace the backend's DCSM store with every observation the
    DCSM holds; returns the number written."""
    for key, __ in list(backend.scan_prefix(STORE_DCSM, "")):
        backend.delete(STORE_DCSM, key)
    count = 0
    for domain, function in dcsm.database.functions():
        for seq, obs in enumerate(dcsm.database.observations(domain, function)):
            backend.put(
                STORE_DCSM,
                observation_key(domain, function, seq),
                encode_observation(obs),
            )
            count += 1
    return count


def load_observations(backend: "StorageBackend") -> list[Observation]:
    """Every decodable observation in the backend's DCSM store, in
    recording order per function.  Undecodable records are skipped: the
    next save replaces the store without them."""
    observations: list[Observation] = []
    for __, data in backend.scan_prefix(STORE_DCSM, ""):
        try:
            observations.append(decode_observation(data))
        except (AttributeError, KeyError, TypeError, ValueError, ReproError):
            continue
    return observations
