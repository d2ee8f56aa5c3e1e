"""The single-file SQLite backend.

One database file in WAL mode holds every store as rows of a single
``kv(store, key, value)`` table.  WAL gives exactly the concurrency
shape the roadmap's multi-process frontier needs — many concurrent
readers plus one writer — and makes commits crash-consistent: a torn
write can lose the *uncommitted* tail, never corrupt committed state
(the journal plays the role the temp-file + ``os.replace`` discipline
plays for the sharded backend's segment files; see
:func:`repro.storage.backend.atomic_write_bytes`).

Writes between two flushes form one explicit transaction: :meth:`flush`
commits it and checkpoints the WAL back into the main file, so a
snapshot that rewrites a store (delete everything, put everything)
lands whole or not at all, and a flushed database is fully
self-contained (safe to copy while no writer is active).
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import StorageError
from repro.metrics import MetricsRegistry
from repro.storage.backend import BackendBase

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    store TEXT NOT NULL,
    key   TEXT NOT NULL,
    value BLOB NOT NULL,
    PRIMARY KEY (store, key)
)
"""


def _escape_like(prefix: str) -> str:
    return (
        prefix.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )


class SqliteBackend(BackendBase):
    """Namespaced key/value store over one WAL-mode SQLite file."""

    kind = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(metrics)
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # one shared connection: SQLite serializes writers anyway, and a
        # single connection lets pending writes see their own open
        # transaction.  The RLock makes the wrapper thread-safe.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, timeout=30.0
        )
        self._conn.isolation_level = None  # explicit transaction control
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error:
            self._conn.close()  # e.g. the file is not a database
            raise
        self._lock = threading.RLock()
        self._closed = False

    # -- protocol -----------------------------------------------------------

    def get(self, store: str, key: str) -> Optional[bytes]:
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT value FROM kv WHERE store = ? AND key = ?", (store, key)
            ).fetchone()
        value = bytes(row[0]) if row is not None else None
        self._note_read(value)
        return value

    def put(self, store: str, key: str, value: bytes) -> None:
        with self._lock:
            self._check_open()
            self._begin()
            self._conn.execute(
                "INSERT OR REPLACE INTO kv (store, key, value) VALUES (?, ?, ?)",
                (store, key, bytes(value)),
            )
        self._note_write(value)

    def delete(self, store: str, key: str) -> bool:
        with self._lock:
            self._check_open()
            self._begin()
            cursor = self._conn.execute(
                "DELETE FROM kv WHERE store = ? AND key = ?", (store, key)
            )
            existed = cursor.rowcount > 0
        if existed:
            self._inc("storage.deletes")
        return existed

    def scan_prefix(self, store: str, prefix: str) -> Iterator[tuple[str, bytes]]:
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT key, value FROM kv WHERE store = ? "
                "AND key LIKE ? ESCAPE '\\' ORDER BY key",
                (store, _escape_like(prefix) + "%"),
            ).fetchall()
        self._inc("storage.scans")
        for key, value in rows:
            yield key, bytes(value)

    def flush(self) -> None:
        """Commit every write since the last flush as one transaction and
        checkpoint the WAL (crash-safe: SQLite's journal makes the commit
        atomic — readers see the old committed state or the new one,
        never a torn mix)."""
        with self._lock:
            self._check_open()
            if self._conn.in_transaction:
                self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._inc("storage.flushes")

    def rollback(self) -> None:
        with self._lock:
            self._check_open()
            if self._conn.in_transaction:
                self._conn.rollback()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.flush()
            self._conn.close()
            self._closed = True

    # -- internals ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"sqlite backend {self.path} is closed")

    def _begin(self) -> None:
        if not self._conn.in_transaction:
            self._conn.execute("BEGIN")
