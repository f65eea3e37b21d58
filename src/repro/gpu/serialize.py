"""Kernel-trace, configuration and statistics serialization.

Workload traces can take seconds to minutes to generate (graph synthesis
plus per-warp trace building). This module saves a `KernelSpec` — the
complete launch tree included — as one binary record and loads it back,
preserving body sharing (a `TBBody` referenced by several launches
round-trips to a single object).

Format (``FORMAT_VERSION`` 2): a magic and version prefix, then one zlib
stream holding a small JSON header (name, resources, launch table, roots)
and flat ``array('q')`` columns — warps per body, instructions per warp,
op bytes, per-instruction arguments and one address pool. Bodies and
launches are referenced by table index, so arbitrarily deep launch trees
serialize without recursion. Decoding validates every length, op code
and index and never evaluates the record (no pickle, marshal or eval).
Format 1 (gzip JSON) files are rejected with a message saying so.

It also provides the plain-object round trips the execution layer is
built on: `GPUConfig` and `SimStats` to/from JSON-compatible dicts
(`config_to_obj` / `config_from_obj`, `stats_to_obj` / `stats_from_obj`)
and `config_fingerprint`, the content hash that keys result caching in
`repro.harness` (see docs/harness.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.stats import SimStats
from repro.gpu.trace import Instr, LaunchSpec, Op, TBBody

#: Layout version of the binary trace record. 1 was gzip-compressed JSON.
FORMAT_VERSION = 2


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
#   u64 header length, the JSON header (name, resources, launch table,
#   roots, column lengths), then five flat columns of little-endian int64
#   (ops: one byte each):
#
#   body_warps   warps per body                     (one per body)
#   warp_instrs  instructions per warp              (one per warp)
#   ops          Op value                           (one byte per instr)
#   args         COMPUTE: cycles; LOAD/STORE: number of addresses;
#                LAUNCH: launch-table index         (one per instr)
#   addrs        every LOAD/STORE address, in trace order
#
# Bodies and launches are referenced by table index, so shared bodies and
# launch specs round-trip to single objects and launch-tree depth never
# recurses in the decoder.

_MAGIC = b"REPROTRC"
_PREFIX = struct.Struct("<8sI")
_HEADER_LEN = struct.Struct("<Q")
_GZIP_MAGIC = b"\x1f\x8b"
_OPS = tuple(Op)
_ITEM = array("q").itemsize
_NATIVE_LE = sys.byteorder == "little"


def _le(column: array) -> array:
    """``column`` in little-endian byte order (a copy only on big-endian hosts)."""
    if _NATIVE_LE:
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def spec_to_bytes(spec: KernelSpec) -> bytes:
    """Encode a kernel spec as one binary trace record."""
    bodies, body_ids, launches, launch_ids = _collect(spec)
    body_warps = array("q")
    warp_instrs = array("q")
    ops = bytearray()
    args = array("q")
    addrs = array("q")
    compute, launch = Op.COMPUTE, Op.LAUNCH
    for body in bodies:
        body_warps.append(len(body.warps))
        for warp in body.warps:
            warp_instrs.append(len(warp))
            for instr in warp:
                op = instr.op
                ops.append(op)
                if op == compute:
                    args.append(instr.cycles)
                elif op == launch:
                    args.append(launch_ids[id(instr.launch)])
                else:
                    args.append(len(instr.addresses))
                    addrs.extend(instr.addresses)
    header = {
        "name": spec.name,
        "resources": [
            spec.resources.threads,
            spec.resources.regs_per_thread,
            spec.resources.smem_bytes,
        ],
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
        "counts": [len(body_warps), len(warp_instrs), len(ops), len(addrs)],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    compressor = zlib.compressobj(1)
    chunks = [_PREFIX.pack(_MAGIC, FORMAT_VERSION)]
    # each column goes to zlib through its own buffer: no joined copy of
    # the uncompressed trace is ever made
    for part in (
        _HEADER_LEN.pack(len(header_bytes)),
        header_bytes,
        _le(body_warps),
        _le(warp_instrs),
        ops,
        _le(args),
        _le(addrs),
    ):
        chunks.append(compressor.compress(memoryview(part)))
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


def spec_from_bytes(data: bytes) -> KernelSpec:
    """Decode a record written by :func:`spec_to_bytes`.

    Every length, op code and index is checked, so a truncated, corrupt
    or foreign record raises :class:`ValueError` (or ``zlib.error`` for a
    damaged compressed body) instead of yielding a wrong trace.
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
    n_bodies, n_warps, n_instrs, n_addrs = _int_fields(header.get("counts"), 4, "counts")
    body_warps, offset = _column(payload, offset, n_bodies, "body_warps")
    warp_instrs, offset = _column(payload, offset, n_warps, "warp_instrs")
    if n_instrs < 0 or offset + n_instrs > len(payload):
        raise ValueError("corrupt trace record: ops column truncated")
    ops = payload[offset:offset + n_instrs]
    offset += n_instrs
    args, offset = _column(payload, offset, n_instrs, "args")
    addrs, offset = _column(payload, offset, n_addrs, "addrs")
    if offset != len(payload):
        raise ValueError("corrupt trace record: trailing bytes after the columns")
    if sum(body_warps) != n_warps or min(body_warps, default=1) < 1:
        raise ValueError("corrupt trace record: warps per body disagree with warp count")
    if sum(warp_instrs) != n_instrs or min(warp_instrs, default=0) < 0:
        raise ValueError("corrupt trace record: instrs per warp disagree with instr count")

    launch_rows = header.get("launches")
    if not isinstance(launch_rows, list):
        raise ValueError("corrupt trace record: bad launch table")
    n_launches = len(launch_rows)
    # launch specs are created first (bodies filled in below), so LAUNCH
    # instructions can reference any launch regardless of tree depth
    placeholder = [TBBody(warps=[[Instr(Op.COMPUTE)]])]
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

    bodies = []
    warp_index = 0
    instr_index = 0
    addr_index = 0
    compute, load, store, launch = _OPS
    for n_body_warps in body_warps:
        warps = []
        for count in warp_instrs[warp_index:warp_index + n_body_warps]:
            instrs = []
            append = instrs.append
            for k in range(instr_index, instr_index + count):
                op = ops[k]
                arg = args[k]
                if op == 0:
                    append(Instr(compute, cycles=arg))
                elif op == 1 or op == 2:
                    end = addr_index + arg
                    if arg < 0 or end > n_addrs:
                        raise ValueError("corrupt trace record: address pool overrun")
                    append(Instr(load if op == 1 else store, addresses=tuple(addrs[addr_index:end])))
                    addr_index = end
                elif op == 3:
                    append(Instr(launch, launch=launch_specs[_index(arg, n_launches, "launch")]))
                else:
                    raise ValueError(f"corrupt trace record: unknown op code {op}")
            instr_index += count
            warps.append(instrs)
        warp_index += n_body_warps
        bodies.append(TBBody(warps=warps))
    if addr_index != n_addrs:
        raise ValueError("corrupt trace record: unused addresses in the pool")

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
