"""Kernel-trace, configuration and statistics serialization.

Workload traces can take seconds to minutes to generate (graph synthesis
plus per-warp trace building). This module saves a `KernelSpec` — the
complete launch tree included — as one binary record and loads it back,
preserving body sharing (a `TBBody` referenced by several launches
round-trips to a single object).

Format (``FORMAT_VERSION`` 5): a magic and version prefix, then one zlib
stream holding a small JSON header (name, resources, line size, launch
table, roots) and the columns of the trace's `TraceArena`, body by body
— warps per body, instructions per warp, op codes, arguments and the
coalesced 128-byte line pool. Storing a trace is one gather per column
and one compression pass; loading one makes the decoded columns one
arena that every decoded body views, so a loaded trace replays with no
coalescing and no per-body copies. Bodies and launches are referenced by table index, so
arbitrarily deep launch trees serialize without recursion. Decoding
validates every length, op code and index and never evaluates the
record (no pickle, marshal or eval). Format 1 (gzip JSON), format 2
(per-instruction records), format 3 (every lane address listed) and
format 4 (a per-lane address pool) files are rejected with a message
naming their format.

It also names the plain-object round trips of `GPUConfig` and `SimStats`
(`config_to_obj` / `config_from_obj`, `stats_to_obj` / `stats_from_obj`,
thin aliases of their `to_dict` / `from_dict`) and `config_fingerprint`,
a short content hash of a machine. The execution layer calls `to_dict` /
`from_dict` itself, so a run answered from the result cache never imports
this codec (docs/harness.md, "What a run imports").
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from operator import sub
from typing import TYPE_CHECKING

from repro.gpu.config import GPUConfig, canonical_json
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.stats import SimStats
from repro.gpu.trace import (
    LINE_BYTES,
    OP_COMPUTE,
    OP_LAUNCH,
    OP_LOAD,
    OP_STORE,
    WARP_SIZE,
    LaunchSpec,
    TBBody,
    TraceArena,
    WarpTrace,
)

if TYPE_CHECKING:
    from numpy import ndarray

#: Layout version of the binary trace record. 1 was gzip-compressed JSON,
#: 2 one record per instruction (addresses only, coalesced at load), 3 and
#: 4 the columns of format 5 plus every access's per-lane byte addresses
#: (4 stored a range access as a run: its first address and stride).
FORMAT_VERSION = 5

#: what the formats this version no longer reads held
_RETIRED_FORMATS = {
    2: "instruction records",
    3: "every lane address listed",
    4: "a per-lane address pool",
}


def config_to_obj(config: GPUConfig) -> dict:
    """Serialize a machine description to plain JSON-compatible objects."""
    return config.to_dict()


def config_from_obj(obj: dict) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from :func:`config_to_obj` output."""
    return GPUConfig.from_dict(obj)


def config_fingerprint(config: GPUConfig) -> str:
    """Short content hash of a machine description.

    Two configs share a fingerprint iff every field (including nested
    cache geometry) is equal — this is what makes simulation results
    content-addressable.
    """
    digest = hashlib.sha256(canonical_json(config_to_obj(config)).encode("utf-8"))
    return digest.hexdigest()[:16]


def stats_to_obj(stats: SimStats) -> dict:
    """Serialize simulation results to plain JSON-compatible objects."""
    return stats.to_dict()


def stats_from_obj(obj: dict) -> SimStats:
    """Rebuild a :class:`SimStats` from :func:`stats_to_obj` output."""
    return SimStats.from_dict(obj)


def _collect(spec: KernelSpec):
    """Index every body and launch spec reachable from ``spec``."""
    bodies: list[TBBody] = []
    body_ids: dict[int, int] = {}
    launches: list[LaunchSpec] = []
    launch_ids: dict[int, int] = {}

    def visit_body(body: TBBody) -> None:
        if id(body) in body_ids:
            return
        body_ids[id(body)] = len(bodies)
        bodies.append(body)
        for child_spec in body.launches():
            visit_launch(child_spec)

    def visit_launch(launch_spec: LaunchSpec) -> None:
        if id(launch_spec) in launch_ids:
            return
        launch_ids[id(launch_spec)] = len(launches)
        launches.append(launch_spec)
        for body in launch_spec.bodies:
            visit_body(body)

    for body in spec.bodies:
        visit_body(body)
    return bodies, body_ids, launches, launch_ids


# --- the binary trace record ---------------------------------------------------
#
# A record is ``_MAGIC``, the little-endian u32 ``FORMAT_VERSION``, then one
# zlib stream holding, back to back:
#
#   u64 header length, the JSON header (name, resources, line size, launch
#   table, roots, column lengths), then flat columns of little-endian int64:
#
#   body_warps   warps per body                              (one per body)
#   warp_instrs  instructions per warp                       (one per warp)
#   ops          op code                                     (one per instr)
#   args         COMPUTE: cycles; LOAD/STORE: coalesced line count;
#                LAUNCH: index into the body's launch list    (one per instr)
#   lines        every body's coalesced line pool, body after body
#   launch_refs  each body's launch list as launch-table indices
#
# These are the columns of a TraceArena (repro.gpu.trace), each body's
# slice in table order: storing a trace gathers the slices and compresses
# once, and loading one makes the decoded columns the arena every body
# views, without coalescing. Line offsets are not stored; the decoder
# recomputes them from the line counts. Bodies and launches are referenced
# by table index, so shared bodies and launch specs round-trip to single
# objects and launch-tree depth never recurses in the decoder.

_MAGIC = b"REPROTRC"
_PREFIX = struct.Struct("<8sI")
_HEADER_LEN = struct.Struct("<Q")
_GZIP_MAGIC = b"\x1f\x8b"
_ITEM = array("q").itemsize
_NATIVE_LE = sys.byteorder == "little"
_COLUMNS = ("body_warps", "warp_instrs", "ops", "args", "lines", "launch_refs")


def _le(values) -> bytes:
    """``values`` (a sequence or an int64 array) as little-endian int64 bytes."""
    import numpy as np

    return np.asarray(values, dtype="<i8").tobytes()


def _gather(arenas: list[TraceArena], column: str, arena_of, lo, hi) -> bytes:
    """Every body's ``[lo, hi)`` slice of its arena's ``column``, joined in
    body order, as little-endian int64 bytes.

    One fancy-indexing gather per column: a built trace's bodies do not
    tile their arena in table order, so the slices cannot be copied as one
    run, but they need not be copied one by one either.
    """
    import numpy as np

    sources = [np.frombuffer(getattr(arena, column), dtype=np.int64) for arena in arenas]
    source = sources[0] if len(sources) == 1 else np.concatenate(sources)
    start = lo + _bounds(np.array([len(src) for src in sources]))[arena_of]
    lengths = hi - lo
    # element k of a body's slice sits at the body's start plus k
    index = np.arange(lengths.sum()) + np.repeat(start - _bounds(lengths)[:-1], lengths)
    return _le(source[index])


def spec_to_bytes(spec: KernelSpec) -> bytes:
    """Encode a kernel spec as one binary trace record."""
    import numpy as np

    bodies, body_ids, launches, launch_ids = _collect(spec)
    arena_ids: dict[int, int] = {}
    arenas: list[TraceArena] = []
    # per body: its arena, then its instruction and line bounds in that
    # arena's columns
    spans = []
    body_warps = []
    warp_instrs = array("q")
    launch_refs = []
    for body in bodies:
        arena, bounds = body.arena, body.warp_bounds
        arena_index = arena_ids.get(id(arena))
        if arena_index is None:
            arena_index = arena_ids[id(arena)] = len(arenas)
            arenas.append(arena)
        spans.append((arena_index, bounds[0], bounds[-1], body.line_lo, body.line_hi))
        body_warps.append(len(bounds) - 1)
        warp_instrs.extend(map(sub, bounds[1:], bounds))
        if body.launch_table:
            launch_refs.extend([launch_ids[id(s)] for s in body.launch_table])
    arena_of, instr_lo, instr_hi, line_lo, line_hi = np.array(spans, dtype=np.int64).T
    data = [
        _le(body_warps),
        _le(warp_instrs),
        _gather(arenas, "ops", arena_of, instr_lo, instr_hi),
        _gather(arenas, "args", arena_of, instr_lo, instr_hi),
        _gather(arenas, "lines", arena_of, line_lo, line_hi),
        _le(launch_refs),
    ]
    header = {
        "name": spec.name,
        "resources": [
            spec.resources.threads,
            spec.resources.regs_per_thread,
            spec.resources.smem_bytes,
        ],
        "line_bytes": LINE_BYTES,
        "launches": [
            [
                [body_ids[id(b)] for b in launch_spec.bodies],
                launch_spec.threads_per_tb,
                launch_spec.regs_per_thread,
                launch_spec.smem_per_tb,
                launch_spec.name,
            ]
            for launch_spec in launches
        ],
        "roots": [body_ids[id(b)] for b in spec.bodies],
        "counts": [len(column) // _ITEM for column in data],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    compressor = zlib.compressobj(1)
    chunks = [_PREFIX.pack(_MAGIC, FORMAT_VERSION)]
    for part in (_HEADER_LEN.pack(len(header_bytes)), header_bytes, *data):
        chunks.append(compressor.compress(part))
    chunks.append(compressor.flush())
    return b"".join(chunks)


def _index(value, size: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < size:
        raise ValueError(f"corrupt trace record: {what} index {value!r} out of range")
    return value


def _int_fields(values, count: int, what: str) -> list:
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"corrupt trace record: bad {what}")
    if any(type(v) is not int for v in values):
        raise ValueError(f"corrupt trace record: non-integer {what}")
    return values


def _column(payload: memoryview, offset: int, count: int, what: str) -> tuple[array, int]:
    end = offset + count * _ITEM
    if count < 0 or end > len(payload):
        raise ValueError(f"corrupt trace record: {what} column truncated")
    column = array("q")
    column.frombytes(payload[offset:end])
    if not _NATIVE_LE:
        column.byteswap()
    return column, end


def _corrupt(message: str) -> ValueError:
    return ValueError(f"corrupt trace record: {message}")


def _bounds(values: ndarray) -> ndarray:
    """Exclusive prefix sums of ``values`` plus the total (len + 1)."""
    import numpy as np

    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _check_columns(columns: list[array], n_launches: int):
    """Validate the columns against each other; return the arena's line
    offsets (each instruction's start in the line pool), the warps'
    instruction bounds and, per body, its bounds in the warp, line and
    launch-ref columns.

    Every op code, count and index is checked, so a damaged record raises
    instead of replaying a wrong trace. Only this validation and the
    encoder use numpy, and each imports it itself: the JSON helpers above
    serve warm paths, which never import it.
    """
    import numpy as np

    bw, wi, op, arg, _, refs = (np.frombuffer(c, dtype=np.int64) for c in columns)
    n_bodies, n_warps, n_instrs, n_args, n_lines, n_refs = (len(c) for c in columns)
    if n_args != n_instrs:
        raise _corrupt("args disagree with ops")
    if bw.size and bw.min() < 1 or bw.sum() != n_warps:
        raise _corrupt("warps per body disagree with warp count")
    if wi.size and wi.min() < 1:
        raise _corrupt("a warp without instructions")
    if wi.sum() != n_instrs:
        raise _corrupt("instrs per warp disagree with instr count")
    if op.size and (op.min() < OP_COMPUTE or op.max() > OP_LAUNCH):
        bad = op[(op < OP_COMPUTE) | (op > OP_LAUNCH)][0]
        raise _corrupt(f"unknown op code {int(bad)}")
    is_access = (op == OP_LOAD) | (op == OP_STORE)
    is_launch = op == OP_LAUNCH
    if np.any(arg[op == OP_COMPUTE] < 1) or np.any(arg[is_access] < 0):
        raise _corrupt("negative cycle or line count")
    if np.any(arg[is_access] > WARP_SIZE):
        raise _corrupt(f"an access spans more than {WARP_SIZE} lines")
    access_lines = np.where(is_access, arg, 0)
    if access_lines.sum() != n_lines:
        raise _corrupt("line counts disagree with the line pool")
    if int(is_launch.sum()) != n_refs:
        raise _corrupt("launches disagree with the launch references")
    if refs.size and (refs.min() < 0 or refs.max() >= n_launches):
        raise _corrupt("launch reference out of range")

    warp_bounds = _bounds(wi)
    body_warp_bounds = _bounds(bw)
    body_instrs = warp_bounds[body_warp_bounds]
    line_bounds = _bounds(access_lines)
    ref_bounds = _bounds(is_launch.astype(np.int64))
    # a LAUNCH's argument is its place in its own body's launch list
    body_of_instr = np.repeat(np.arange(n_bodies), np.diff(body_instrs))
    launch_index = ref_bounds[:-1] - ref_bounds[body_instrs[:-1]][body_of_instr]
    if np.any(arg[is_launch] != launch_index[is_launch]):
        raise _corrupt("launch index out of order")
    return (
        array("q", line_bounds[:-1].tobytes()),
        warp_bounds.tolist(),
        body_warp_bounds.tolist(),
        line_bounds[body_instrs].tolist(),
        ref_bounds[body_instrs].tolist(),
    )


def spec_from_bytes(data: bytes) -> KernelSpec:
    """Decode a record written by :func:`spec_to_bytes`.

    Every length, op code and index is checked, so a truncated, corrupt
    or foreign record raises :class:`ValueError` (or ``zlib.error`` for a
    damaged compressed body) instead of yielding a wrong trace. Line
    spans are read as stored (zlib's checksum guards their bytes), never
    re-coalesced.
    """
    data = memoryview(data)
    if data[:2] == _GZIP_MAGIC:
        raise ValueError(
            "trace file is format 1 (gzip JSON), which this version no longer "
            f"reads; re-snapshot it to write format {FORMAT_VERSION}"
        )
    if len(data) < _PREFIX.size:
        raise ValueError("not a repro trace record (too short)")
    magic, version = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a repro trace record (bad magic)")
    if version in _RETIRED_FORMATS:
        raise ValueError(
            f"trace file is format {version} ({_RETIRED_FORMATS[version]}), which this "
            f"version no longer reads; re-snapshot it to write format {FORMAT_VERSION}"
        )
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")
    decompressor = zlib.decompressobj()
    payload = memoryview(decompressor.decompress(data[_PREFIX.size:]))
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError("corrupt trace record: truncated or trailing data")

    if len(payload) < _HEADER_LEN.size:
        raise ValueError("corrupt trace record: header truncated")
    (header_len,) = _HEADER_LEN.unpack_from(payload)
    offset = _HEADER_LEN.size + header_len
    if offset > len(payload):
        raise ValueError("corrupt trace record: header truncated")
    header = json.loads(bytes(payload[_HEADER_LEN.size:offset]).decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("corrupt trace record: header is not an object")
    counts = _int_fields(header.get("counts"), len(_COLUMNS), "counts")
    columns = []
    for count, what in zip(counts, _COLUMNS):
        column, offset = _column(payload, offset, count, what)
        columns.append(column)
    if offset != len(payload):
        raise ValueError("corrupt trace record: trailing bytes after the columns")
    _, _, ops, args, lines, launch_refs = columns
    n_bodies = counts[0]
    if header.get("line_bytes") != LINE_BYTES:
        raise ValueError("corrupt trace record: bad line size")

    launch_rows = header.get("launches")
    if not isinstance(launch_rows, list):
        raise ValueError("corrupt trace record: bad launch table")
    # launch specs are created first (bodies filled in below), so a body
    # can reference any launch regardless of tree depth
    placeholder = [TBBody(warps=[WarpTrace().compute(1)])]
    launch_specs = []
    for row in launch_rows:
        if not isinstance(row, list) or len(row) != 5 or not isinstance(row[4], str):
            raise ValueError("corrupt trace record: bad launch table entry")
        _int_fields(row[1:4], 3, "launch resources")
        if not isinstance(row[0], list) or not row[0]:
            raise ValueError("corrupt trace record: launch without bodies")
        launch_specs.append(
            LaunchSpec(
                bodies=placeholder,
                threads_per_tb=row[1],
                regs_per_thread=row[2],
                smem_per_tb=row[3],
                name=row[4],
            )
        )

    offs, warps, body_warps_at, body_lines, body_refs = _check_columns(columns, len(launch_specs))
    arena = TraceArena()
    arena.ops, arena.args, arena.offs, arena.lines = ops, args, offs, lines
    refs = [launch_specs[r] for r in launch_refs.tolist()]
    view = TBBody.view
    bodies = [
        view(
            arena,
            tuple(warps[body_warps_at[b] : body_warps_at[b + 1] + 1]),
            (body_lines[b], body_lines[b + 1]),
            tuple(refs[body_refs[b] : body_refs[b + 1]]),
        )
        for b in range(n_bodies)
    ]

    for launch_spec, row in zip(launch_specs, launch_rows):
        launch_spec.bodies = [bodies[_index(i, n_bodies, "body")] for i in row[0]]
    roots = header.get("roots")
    if not isinstance(roots, list) or not roots:
        raise ValueError("corrupt trace record: bad roots")
    name = header.get("name")
    if not isinstance(name, str):
        raise ValueError("corrupt trace record: bad name")
    threads, regs_per_thread, smem_bytes = _int_fields(header.get("resources"), 3, "resources")
    return KernelSpec(
        name=name,
        bodies=[bodies[_index(i, n_bodies, "body")] for i in roots],
        resources=ResourceReq(
            threads=threads, regs_per_thread=regs_per_thread, smem_bytes=smem_bytes
        ),
    )


def save_spec(spec: KernelSpec, path: str | os.PathLike) -> None:
    """Write a kernel spec to a binary trace file (see :func:`spec_to_bytes`)."""
    with open(path, "wb") as handle:
        handle.write(spec_to_bytes(spec))


def load_spec(path: str | os.PathLike) -> KernelSpec:
    """Load a kernel spec written by :func:`save_spec`.

    Raises :class:`ValueError` for a record this version cannot read,
    naming format 1 (gzip JSON) files as such.
    """
    with open(path, "rb") as handle:
        return spec_from_bytes(handle.read())
