"""The sharded segment-file backend.

A directory of JSON segment files, where the segment an entry lands in
is a stable hash of its ``domain:function`` key prefix (see
:func:`repro.storage.backend.shard_prefix`).  Every entry of one source
function therefore lives in exactly one segment — the layout a future
multi-process deployment needs so that workers partitioned by source
touch disjoint files.

Segments are rewritten whole on :meth:`flush` via the temp-file +
``os.replace`` discipline (:func:`~repro.storage.backend.atomic_write_bytes`),
so a crash mid-flush leaves each segment either fully old or fully new.
A ``meta.json`` records the shard count — reopening a directory always
uses the count it was created with, keeping the key → segment mapping
stable across restarts.
"""

from __future__ import annotations

import base64
import json
import threading
import zlib
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import StorageError
from repro.metrics import MetricsRegistry
from repro.storage.backend import BackendBase, atomic_write_bytes, shard_prefix

_FORMAT_VERSION = 1
_META_FILE = "meta.json"


class ShardedBackend(BackendBase):
    """Namespaced key/value store over hash-sharded JSON segment files."""

    kind = "sharded"

    def __init__(
        self,
        root: Union[str, Path],
        shards: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(metrics)
        if shards < 1:
            raise StorageError("shard count must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = self._load_meta(shards)
        # segment index → store → key → value
        self._segments: list[dict[str, dict[str, bytes]]] = [
            {} for _ in range(self.shards)
        ]
        self._dirty = [False] * self.shards
        self._lock = threading.Lock()
        self._closed = False
        self._load_segments()

    # -- protocol -----------------------------------------------------------

    def get(self, store: str, key: str) -> Optional[bytes]:
        with self._lock:
            self._check_open()
            value = self._segments[self._shard_of(key)].get(store, {}).get(key)
        self._note_read(value)
        return value

    def put(self, store: str, key: str, value: bytes) -> None:
        with self._lock:
            self._check_open()
            index = self._shard_of(key)
            self._segments[index].setdefault(store, {})[key] = bytes(value)
            self._dirty[index] = True
        self._note_write(value)

    def delete(self, store: str, key: str) -> bool:
        with self._lock:
            self._check_open()
            index = self._shard_of(key)
            existed = self._segments[index].get(store, {}).pop(key, None) is not None
            if existed:
                self._dirty[index] = True
        if existed:
            self._inc("storage.deletes")
        return existed

    def scan_prefix(self, store: str, prefix: str) -> Iterator[tuple[str, bytes]]:
        with self._lock:
            self._check_open()
            snapshot = [
                (key, value)
                for segment in self._segments
                for key, value in segment.get(store, {}).items()
                if key.startswith(prefix)
            ]
        self._inc("storage.scans")
        yield from sorted(snapshot)

    def flush(self) -> None:
        """Atomically rewrite every dirty segment file."""
        with self._lock:
            self._check_open()
            self._flush_locked()
        self._inc("storage.flushes")

    def rollback(self) -> None:
        """Re-read every dirty segment from its file."""
        with self._lock:
            self._check_open()
            for index in range(self.shards):
                if self._dirty[index]:
                    self._segments[index] = self._read_segment(index)
                    self._dirty[index] = False

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._closed = True

    # -- internals ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"sharded backend {self.root} is closed")

    def _flush_locked(self) -> None:
        for index, segment in enumerate(self._segments):
            if not self._dirty[index]:
                continue
            atomic_write_bytes(self._segment_path(index), _encode_segment(segment))
            self._dirty[index] = False

    def _shard_of(self, key: str) -> int:
        routing = shard_prefix(key)
        return zlib.crc32(routing.encode("utf-8")) % self.shards

    def _segment_path(self, index: int) -> Path:
        return self.root / f"segment-{index:03d}.json"

    def _load_meta(self, shards: int) -> int:
        meta_path = self.root / _META_FILE
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("version") != _FORMAT_VERSION:
                raise StorageError(
                    f"unsupported sharded-store version {meta.get('version')!r}"
                )
            return int(meta["shards"])
        atomic_write_bytes(
            meta_path,
            json.dumps({"version": _FORMAT_VERSION, "shards": shards}).encode(),
        )
        return shards

    def _load_segments(self) -> None:
        for index in range(self.shards):
            self._segments[index] = self._read_segment(index)

    def _read_segment(self, index: int) -> dict[str, dict[str, bytes]]:
        path = self._segment_path(index)
        if not path.exists():
            return {}
        return _decode_segment(path.read_bytes())


def _encode_segment(segment: dict[str, dict[str, bytes]]) -> bytes:
    payload = {
        store: {
            key: base64.b64encode(value).decode("ascii")
            for key, value in entries.items()
        }
        for store, entries in segment.items()
        if entries
    }
    return json.dumps({"version": _FORMAT_VERSION, "stores": payload}).encode()


def _decode_segment(data: bytes) -> dict[str, dict[str, bytes]]:
    payload = json.loads(data)
    if payload.get("version") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported segment format version {payload.get('version')!r}"
        )
    return {
        store: {
            key: base64.b64decode(value) for key, value in entries.items()
        }
        for store, entries in payload.get("stores", {}).items()
    }
