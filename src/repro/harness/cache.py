"""Content-addressed on-disk cache for simulation results.

A record is one JSON file per simulation, stored under a directory
sharded by the first two hex digits of its key::

    <root>/ab/abcdef0123....json

Keys are produced by :meth:`repro.harness.execution.RunSpec.cache_key`:
a SHA-256 over the full run description (benchmark, scale, seed,
scheduler, model, the complete machine configuration and the cycle
budget) *plus* ``ENGINE_VERSION``, so results stored by an older engine
are simply never looked up again — stale entries go cold instead of
going wrong.

The cache itself is deliberately dumb storage: it maps key strings to
JSON records and never interprets them. Validation (does the stored spec
really match? is the engine version current?) lives in the executor,
which re-simulates on any mismatch. Corrupt or truncated files are
treated as misses, and writes are atomic (temp file + ``os.replace``) so
concurrent processes sharing one cache directory never observe a
half-written record. A failed write (a full disk, a read-only
directory) is counted and reported once on stderr, never raised: the
caller keeps the result it just computed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional


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


def atomic_write_text(path: Path, text: str) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"))


class ResultCache:
    """Keyed JSON-record store rooted at one directory.

    The directory is created lazily on the first :meth:`store`, so
    constructing a cache (e.g. from a CLI default) touches nothing.
    """

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
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """Return the record stored under ``key``, or None.

        Missing, unreadable and corrupt files all count as misses — the
        caller recomputes and overwrites.
        """
        try:
            text = self.path_for(key).read_text(encoding="utf-8")
            record = json.loads(text)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(record, dict):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, record: dict) -> None:
        """Atomically write ``record`` under ``key`` (overwrites).

        Safe under concurrent same-key writers across processes *and*
        threads: see :func:`atomic_write_bytes`. An ``OSError``
        (``ENOSPC``, ``EACCES``, ...) leaves no temp file behind, counts
        in ``store_errors`` and is reported on stderr once per cache.
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(record, sort_keys=True))
        except OSError as exc:
            self.store_errors += 1
            if self.store_errors == 1:
                print(
                    f"warning: result not cached: cannot write {path} "
                    f"(errno {exc.errno}: {exc.strerror}); continuing without it",
                    file=sys.stderr,
                )
            return
        self.stores += 1

    def __len__(self) -> int:
        """Number of records on disk (walks the directory)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- maintenance (``repro cache stats`` / ``repro cache prune``) -----------

    def record_paths(self) -> list[Path]:
        """Every record file on disk, in deterministic (sorted) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def disk_stats(self) -> dict:
        """Size/content digest of the cache directory (JSON-safe).

        Walks every record once; ``engine_versions`` counts records per
        stored ``engine_version`` (``"unknown"`` for records without
        one), which is how stale results from older engines show up.
        """
        records = 0
        total_bytes = 0
        versions: dict[str, int] = {}
        for path in self.record_paths():
            try:
                size = path.stat().st_size
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # racing writer or corrupt record: skip
            records += 1
            total_bytes += size
            version = record.get("engine_version") if isinstance(record, dict) else None
            label = "unknown" if version is None else str(version)
            versions[label] = versions.get(label, 0) + 1
        return {
            "root": str(self.root),
            "records": records,
            "total_bytes": total_bytes,
            "engine_versions": dict(sorted(versions.items())),
        }

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Delete oldest records until the cache fits in ``max_bytes``.

        Eviction order is modification time (then file name, so equal
        timestamps break deterministically); returns ``(records removed,
        bytes freed)``. Empty shard directories are cleaned up so a fully
        pruned cache leaves only its root behind.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        total = 0
        for path in self.record_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
        removed = 0
        freed = 0
        for _, _, path, size in sorted(entries):
            if total - freed <= max_bytes:
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
        return f"ResultCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
