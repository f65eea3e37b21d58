"""Content-addressed on-disk stores: one record file per key.

:class:`ContentStore` is the one store implementation. Records live in a
directory sharded by the first two hex digits of their key::

    <root>/ab/abcdef0123...<suffix>

Each stored product is a small subclass that keeps only its suffix, its
warning label, its key and its codec: :class:`ResultCache` (``.json``
simulation results, keyed by :meth:`~repro.harness.execution.RunSpec.cache_key`)
and :class:`~repro.harness.workload_cache.WorkloadCache` (``.trace``
workload traces, at ``<result-cache-root>/workloads/``). Keys hash a
version (``ENGINE_VERSION``, ``TRACE_VERSION``) along with the inputs,
so stale records go cold instead of going wrong.

A store is deliberately dumb: it maps keys to records and never
interprets them (the executor validates a result record and re-simulates
on any mismatch). Missing, corrupt or truncated files are misses.
Writes are atomic (temp file + ``os.replace``), so concurrent processes
sharing one directory never observe a half-written record. A failed
write (a full disk, a read-only directory) is counted and reported once
per store on stderr, never raised: the caller keeps what it computed.
The directory is created on the first store, so constructing a store
(e.g. from a CLI default) touches nothing.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically, safe under concurrent writers.

    The temp file comes from :func:`tempfile.mkstemp` in the target
    directory, so every concurrent writer — other processes, other
    threads *in the same process* — gets a distinct name (a pid-suffixed
    name is not enough: two threads share a pid and would race each
    other's ``os.replace``). Readers only ever observe complete records;
    when several writers race the same key, the last rename wins. On any
    failure (``ENOSPC`` mid-write included) the temp file is removed and
    the exception propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ContentStore:
    """Keyed record files rooted at one directory.

    Subclasses set :attr:`suffix` and :attr:`label`, and implement
    :meth:`_encode` / :meth:`_decode`; :attr:`_corrupt` lists the
    exceptions by which a decode reports a damaged record.
    """

    #: file suffix of every record (also what :meth:`record_paths` globs)
    suffix = ""
    #: what a record is called in the failed-store warning
    label = "record"
    _corrupt: tuple[type[BaseException], ...] = (OSError, ValueError)

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0

    def path_for(self, key: str) -> Path:
        """File a record with this key lives at (whether or not it exists)."""
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"invalid cache key {key!r}")
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def _decode(self, path: Path) -> Any:
        raise NotImplementedError

    def _read(self, key: str) -> Any:
        """The record stored under ``key``, or None: missing, unreadable
        and corrupt files all count as misses — the caller recomputes and
        overwrites."""
        try:
            value = self._decode(self.path_for(key))
        except self._corrupt:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(self, key: str, value: Any) -> None:
        """Atomically write ``value`` under ``key`` (overwrites).

        Safe under concurrent same-key writers across processes *and*
        threads: see :func:`atomic_write_bytes`. An ``OSError``
        (``ENOSPC``, ``EACCES``, ...) leaves no temp file behind, counts
        in ``store_errors`` and is reported on stderr once per store.
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, self._encode(value))
        except OSError as exc:
            self.store_errors += 1
            if self.store_errors == 1:
                print(
                    f"warning: {self.label} not cached: cannot write {path} "
                    f"(errno {exc.errno}: {exc.strerror}); continuing without it",
                    file=sys.stderr,
                )
            return
        self.stores += 1

    def __len__(self) -> int:
        """Number of records on disk (walks the directory)."""
        return len(self.record_paths())

    # -- maintenance (``repro cache stats`` / ``repro cache prune``) -----------

    def record_paths(self) -> list[Path]:
        """Every record file on disk, in deterministic (sorted) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{self.suffix}"))

    def _entries(self) -> list[tuple[int, str, Path, int]]:
        """``(mtime_ns, name, path, size)`` of every record file, parsable
        or not: what :meth:`disk_stats` counts is what :meth:`prune` sees."""
        entries = []
        for path in self.record_paths():
            try:
                stat = path.stat()
            except OSError:
                continue  # racing writer or prune: skip
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
        return entries

    def disk_stats(self) -> dict:
        """Size digest of the store directory (JSON-safe)."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "records": len(entries),
            "total_bytes": sum(entry[3] for entry in entries),
        }

    def _retired(self, path: Path) -> bool:
        """Whether the record at ``path`` is of a format the codec no
        longer reads (a store whose codec retires none says no)."""
        return False

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Delete every record of a retired format (:meth:`_retired`), then
        oldest records until the store fits in ``max_bytes``.

        Eviction order is modification time (then file name, so equal
        timestamps break deterministically); returns ``(records removed,
        bytes freed)``. Empty shard directories are cleaned up so a fully
        pruned store leaves only its root behind.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self._entries()
        total = sum(entry[3] for entry in entries)
        retired, live = [], []
        for entry in entries:
            (retired if self._retired(entry[2]) else live).append(entry)
        removed = 0
        freed = 0
        # retired records go first, whatever their age or the cap
        for i, (_, _, path, size) in enumerate(retired + sorted(live)):
            if i >= len(retired) and total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent prune got there first
            removed += 1
            freed += size
        if removed and self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return removed, freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r}, hits={self.hits}, misses={self.misses})"


class ResultCache(ContentStore):
    """Simulation results: one JSON object per :meth:`RunSpec.cache_key`."""

    suffix = ".json"
    label = "result"

    def load(self, key: str) -> Optional[dict]:
        """Return the record stored under ``key``, or None (a miss)."""
        return self._read(key)

    def store(self, key: str, record: dict) -> None:
        """Atomically write ``record`` under ``key`` (overwrites)."""
        self._write(key, record)

    def _encode(self, record: dict) -> bytes:
        return json.dumps(record, sort_keys=True).encode("utf-8")

    def _decode(self, path: Path) -> dict:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            raise ValueError(f"{path} holds no record object")
        return record

    def disk_stats(self) -> dict:
        """:meth:`ContentStore.disk_stats` plus ``engine_versions``: records
        per stored ``engine_version`` (``"unknown"`` for records without
        one), which is how stale results from older engines show up.
        Records that do not parse count in ``records`` and
        ``total_bytes``, but not here."""
        stats = super().disk_stats()
        versions: dict[str, int] = {}
        for path in self.record_paths():
            try:
                version = self._decode(path).get("engine_version")
            except self._corrupt:
                continue
            label = "unknown" if version is None else str(version)
            versions[label] = versions.get(label, 0) + 1
        stats["engine_versions"] = dict(sorted(versions.items()))
        return stats
