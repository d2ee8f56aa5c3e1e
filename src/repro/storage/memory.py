"""The in-process dict backend.

Nothing survives the process: ``flush`` only records the state
``rollback`` returns to, and ``close`` drops the table.  It exists so
the backend matrix can run the whole test suite against the trivial
implementation, and so tests can inspect what a flush wrote without
touching disk.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.errors import StorageError
from repro.metrics import MetricsRegistry
from repro.storage.backend import BackendBase


class MemoryBackend(BackendBase):
    """Namespaced key/value store over plain dicts."""

    kind = "memory"

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        super().__init__(metrics)
        self._stores: dict[str, dict[str, bytes]] = {}
        # the state as of the last flush, which rollback returns to
        self._flushed: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def get(self, store: str, key: str) -> Optional[bytes]:
        with self._lock:
            self._check_open()
            value = self._stores.get(store, {}).get(key)
        self._note_read(value)
        return value

    def put(self, store: str, key: str, value: bytes) -> None:
        with self._lock:
            self._check_open()
            self._stores.setdefault(store, {})[key] = bytes(value)
        self._note_write(value)

    def delete(self, store: str, key: str) -> bool:
        with self._lock:
            self._check_open()
            existed = self._stores.get(store, {}).pop(key, None) is not None
        if existed:
            self._inc("storage.deletes")
        return existed

    def scan_prefix(self, store: str, prefix: str) -> Iterator[tuple[str, bytes]]:
        with self._lock:
            self._check_open()
            snapshot = [
                (key, value)
                for key, value in self._stores.get(store, {}).items()
                if key.startswith(prefix)
            ]
        self._inc("storage.scans")
        yield from sorted(snapshot)

    def flush(self) -> None:
        with self._lock:
            self._check_open()
            self._flushed = {store: dict(rows) for store, rows in self._stores.items()}
        self._inc("storage.flushes")

    def rollback(self) -> None:
        with self._lock:
            self._check_open()
            self._stores = {store: dict(rows) for store, rows in self._flushed.items()}

    def close(self) -> None:
        with self._lock:
            self._stores.clear()
            self._flushed.clear()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("memory backend is closed")
