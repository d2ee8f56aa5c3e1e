"""The pluggable storage backend behind the mediator's caches.

The CIM result cache, the DCSM cost-vector database, the plan cache and
the subplan tier all keep their state in process memory (the lookup
structures the paper's latency model depends on); memory is
authoritative.  At :meth:`~repro.core.mediator.Mediator.flush_storage`
each tier replaces its own store in a :class:`StorageBackend` with a
snapshot, and warm start reads the snapshots back.  A backend is a
namespaced key/value store: every operation names a *store* —
``"cim"``, ``"dcsm"``, ``"plancache"`` or ``"subplan"`` — so one
backend file can hold every tier without key collisions, and a future
multi-process deployment can share one on-disk artifact.

Keys are strings.  By convention cache keys lead with
``"domain:function:"`` so that :class:`~repro.storage.sharded.ShardedBackend`
can place every entry of one source function in the same segment file
(see :func:`shard_prefix`).  Values are opaque ``bytes`` — the owning
subsystem chooses the codec (JSON for CIM/DCSM payloads, pickle for plan
templates).

Three implementations ship:

* :class:`~repro.storage.memory.MemoryBackend` — a dict; state dies
  with the process.
* :class:`~repro.storage.sqlite.SqliteBackend` — one SQLite file in WAL
  mode: crash-consistent commits, safe for concurrent readers plus one
  writer process.
* :class:`~repro.storage.sharded.ShardedBackend` — JSON segment files
  keyed by a hash of the ``(domain, function)`` key prefix, so future
  multi-process workers touch disjoint files.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Protocol, Union, runtime_checkable

from repro.errors import StorageError
from repro.metrics import MetricsRegistry

#: The store names the mediator's subsystems use.
STORE_CIM = "cim"
STORE_DCSM = "dcsm"
STORE_PLANCACHE = "plancache"
STORE_SUBPLAN = "subplan"

#: Reserved key carrying a store's format-version metadata.
META_KEY = "__meta__"


@runtime_checkable
class StorageBackend(Protocol):
    """What a cache storage backend must provide.

    All methods must be safe to call from multiple threads — a served
    mediator may flush while another thread reads.
    """

    #: short machine-readable backend name ("memory", "sqlite", "sharded")
    kind: str

    def get(self, store: str, key: str) -> Optional[bytes]:
        """The value under ``key`` in ``store``, or ``None``."""
        ...

    def put(self, store: str, key: str, value: bytes) -> None:
        """Insert or replace ``key`` in ``store``."""
        ...

    def delete(self, store: str, key: str) -> bool:
        """Drop ``key`` from ``store``; True if it existed."""
        ...

    def scan_prefix(self, store: str, prefix: str) -> Iterator[tuple[str, bytes]]:
        """All ``(key, value)`` pairs in ``store`` whose key starts with
        ``prefix`` (a snapshot; ``prefix=""`` scans the whole store)."""
        ...

    def flush(self) -> None:
        """Make every accepted write durable (crash-consistently)."""
        ...

    def rollback(self) -> None:
        """Drop every write since the last flush, so a snapshot that
        failed partway never becomes durable."""
        ...

    def close(self) -> None:
        """Flush and release resources; the backend is unusable after."""
        ...


class BackendBase:
    """Shared plumbing: optional ``storage.*`` metrics accounting."""

    kind = "?"

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics

    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _note_read(self, value: Optional[bytes]) -> None:
        self._inc("storage.reads")
        if value is not None:
            self._inc("storage.bytes_read", float(len(value)))

    def _note_write(self, value: bytes) -> None:
        self._inc("storage.writes")
        self._inc("storage.bytes_written", float(len(value)))


def shard_prefix(key: str) -> str:
    """The ``domain:function`` routing prefix of a conventional cache key.

    Keys that do not carry two ``:``-separated leading components (plan
    cache keys, meta records) route by the whole key — they still land
    deterministically, just not grouped by source function.
    """
    first = key.find(":")
    if first < 0:
        return key
    second = key.find(":", first + 1)
    if second < 0:
        return key
    return key[:second]


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash mid-write cannot tear it.

    The temp-file + ``os.replace`` discipline: write a sibling temp file,
    fsync it, then atomically rename over the destination.  Readers see
    either the old complete file or the new complete file, never a
    prefix.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def make_backend(
    spec: str,
    metrics: Optional[MetricsRegistry] = None,
) -> StorageBackend:
    """Build a backend from a CLI/env spec string.

    Accepted forms::

        memory                  in-process dict
        sqlite:PATH             one SQLite file at PATH (WAL mode)
        sharded:DIR             segment files under DIR (default shards)
        sharded:DIR:N           segment files under DIR, N shards

    Raises :class:`~repro.errors.StorageError` on an unknown kind or a
    missing path.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "memory":
        if rest:
            raise StorageError(f"memory backend takes no path (got {spec!r})")
        from repro.storage.memory import MemoryBackend

        return MemoryBackend(metrics=metrics)
    if kind == "sqlite":
        if not rest:
            raise StorageError("sqlite backend needs a path: sqlite:PATH")
        from repro.storage.sqlite import SqliteBackend

        return SqliteBackend(rest, metrics=metrics)
    if kind == "sharded":
        if not rest:
            raise StorageError("sharded backend needs a directory: sharded:DIR[:N]")
        root, _, shards_text = rest.rpartition(":")
        if root and shards_text.isdigit():
            shards = int(shards_text)
        else:
            root, shards = rest, 0
        from repro.storage.sharded import ShardedBackend

        if shards > 0:
            return ShardedBackend(root, shards=shards, metrics=metrics)
        return ShardedBackend(root, metrics=metrics)
    raise StorageError(
        f"unknown storage backend {kind!r} (try: memory, sqlite:PATH, sharded:DIR)"
    )
