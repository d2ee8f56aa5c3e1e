"""Pluggable persistent storage backends for the mediator's caches.

See :mod:`repro.storage.backend` for the protocol and
``docs/STORAGE.md`` for the architecture: memory is authoritative, and
each cache tier (CIM result cache, DCSM cost-vector database, plan
cache, subplan tier) snapshots into one namespaced key/value backend at
flush, enabling warm restart and (with the sharded backend) future
cross-process sharing.
"""

from repro.storage.backend import (
    META_KEY,
    STORE_CIM,
    STORE_DCSM,
    STORE_PLANCACHE,
    StorageBackend,
    atomic_write_bytes,
    make_backend,
    shard_prefix,
)
from repro.storage.evictor import CostFrequencyEvictor
from repro.storage.memory import MemoryBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.sqlite import SqliteBackend

__all__ = [
    "META_KEY",
    "STORE_CIM",
    "STORE_DCSM",
    "STORE_PLANCACHE",
    "StorageBackend",
    "atomic_write_bytes",
    "make_backend",
    "shard_prefix",
    "CostFrequencyEvictor",
    "MemoryBackend",
    "ShardedBackend",
    "SqliteBackend",
]
