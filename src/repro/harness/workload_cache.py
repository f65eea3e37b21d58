"""Content-addressed on-disk cache of generated workload traces.

Workload generation (graph synthesis plus per-warp trace building) can
cost far more than simulating the resulting trace once, and its inputs
are exactly three values: the benchmark name, the scale and the seed.
This module caches the *generated artifact* — the complete
:class:`~repro.gpu.kernel.KernelSpec`, launch tree included — on disk,
keyed by those inputs plus :data:`TRACE_VERSION`, so a warm ``repro
grid`` / ``tune`` run never executes a datagen step at all.

:class:`WorkloadCache` is a :class:`~repro.harness.cache.ContentStore`
(sharded files, atomic writes, corrupt-is-a-miss reads, warn-once store
failures, stats and prune) whose records are the binary trace records
of :mod:`repro.gpu.serialize` (``spec_to_bytes`` / ``load_spec``: a
zlib stream of the lowered columns of the
:class:`~repro.gpu.trace.TraceArena` every
:class:`~repro.gpu.trace.TBBody` views). They preserve body sharing: a
body referenced by several launches round-trips to a single object, and
a loaded trace replays as stored, with no coalescing. The codec is
imported by the first key, load or store, so a run that never touches a
trace never loads it. A trace lives at::

    <result-cache-root>/workloads/ab/abcdef0123....trace

(:meth:`WorkloadCache.beside`); the suffix and extra directory level
keep the two stores invisible to each other's globs. There is no
process-wide cache: an :class:`~repro.harness.execution.Executor` owns
the trace store beside its result cache and passes it down to
``kernel_for``, and a pool job carries its root in the payload.

Like the result cache, invalidation is by going cold, never wrong:
:data:`TRACE_VERSION` enters every key, so bump it whenever workload
generation or trace semantics change and old records are simply never
looked up again. A record of a retired trace format can never be read
again either, so ``repro cache prune`` deletes those whatever the cap.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.gpu.config import canonical_json
from repro.harness.cache import ContentStore

if TYPE_CHECKING:
    from repro.gpu.kernel import KernelSpec

#: Version of workload-generation semantics. Bump whenever a datagen or
#: trace-building change can alter the KernelSpec a (benchmark, scale,
#: seed) triple produces: it enters every cache key, so previously
#: stored traces go cold (never wrong) without manual cleanup.
TRACE_VERSION = 1


class WorkloadCache(ContentStore):
    """Generated traces: one binary record per (benchmark, scale, seed)."""

    suffix = ".trace"
    label = "workload trace"
    # absent file, truncated or corrupt record, or one from a foreign/old
    # format the decoder rejects: regenerate
    _corrupt = (OSError, zlib.error, struct.error, ValueError, KeyError, TypeError, IndexError)

    @classmethod
    def beside(cls, results_root: str | os.PathLike) -> "WorkloadCache":
        """The trace store that lives inside a result-cache directory."""
        return cls(Path(results_root) / "workloads")

    @staticmethod
    def key_for(benchmark: str, scale: str, seed: int) -> str:
        """Content hash addressing one generated workload trace.

        Includes :data:`TRACE_VERSION` (generation semantics) and the
        serializer's ``FORMAT_VERSION`` (file layout), so bumping either
        makes every stored trace go cold.
        """
        from repro.gpu.serialize import FORMAT_VERSION

        payload = {
            "trace_version": TRACE_VERSION,
            "format_version": FORMAT_VERSION,
            "benchmark": benchmark,
            "scale": scale,
            "seed": seed,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def load(self, benchmark: str, scale: str, seed: int) -> Optional[KernelSpec]:
        """Return the cached trace for this workload, or None (a miss)."""
        return self._read(self.key_for(benchmark, scale, seed))

    def store(self, benchmark: str, scale: str, seed: int, spec: KernelSpec) -> None:
        """Atomically write this workload's trace (overwrites); on a
        failed write the caller keeps using its in-memory trace."""
        self._write(self.key_for(benchmark, scale, seed), spec)

    def _encode(self, spec: KernelSpec) -> bytes:
        from repro.gpu.serialize import spec_to_bytes

        return spec_to_bytes(spec)

    def _decode(self, path: Path) -> KernelSpec:
        from repro.gpu.serialize import load_spec

        return load_spec(path)

    def _retired(self, path: Path) -> bool:
        """A record the decoder refuses by its format's name: its key can
        never be looked up again. A newer format's record is kept."""
        from repro.gpu.serialize import is_retired_record

        try:
            return is_retired_record(path)
        except OSError:
            return False  # gone already, or unreadable: left to the cap


def disable_workload_cache() -> None:
    """Do nothing: there is no process-wide trace cache to disable.

    Traces reach the disk only through the :class:`WorkloadCache` an
    executor passes down, so a bare ``run_spec`` already touches none.
    Kept because ``benchmarks/suite/drivers.py`` still imports it.
    """


__all__ = ["TRACE_VERSION", "WorkloadCache", "disable_workload_cache"]
