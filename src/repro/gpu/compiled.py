"""Re-lowering of thread-block bodies to another cache-line size.

A :class:`~repro.gpu.trace.TBBody` is stored as its lowering: the flat
``array('q')`` columns of a :class:`CompiledBody` that the SMX issue
loop replays, written by :class:`~repro.gpu.trace.WarpTrace` while the
trace is built at ``LINE_BYTES``-byte lines. :func:`compile_body`
lowers a body again from its per-lane addresses (runs expanded by
:meth:`TBBody.accesses`), coalescing every access:
:meth:`TBBody.compiled` calls it only for a machine whose line size
differs from the one the body was built at, and the tests use it as the
reference the builder's arithmetic lowering must match.

The lowering is purely structural: op codes, latencies and coalesced
line addresses are exactly what interpreting each instruction would
have computed (``tests/test_trace_compile.py`` pins the equivalence,
and the golden-equivalence suite pins the engine's simulated results
bit-for-bit).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.gpu.trace import OP_COMPUTE, OP_LAUNCH, OP_LOAD, OP_STORE, CompiledBody
from repro.memory.coalescer import coalesce

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.trace import TBBody

__all__ = ["OP_COMPUTE", "OP_LAUNCH", "OP_LOAD", "OP_STORE", "CompiledBody", "compile_body"]


def compile_body(body: "TBBody", line_bytes: int) -> CompiledBody:
    """Lower ``body`` at ``line_bytes`` from its per-lane addresses.

    Op codes, COMPUTE cycles and the launch table are shared with the
    body's own columns; LOAD/STORE line spans are coalesced afresh.
    """
    native = body.columns
    accesses = body.accesses()
    warp_args: list[array] = []
    warp_offs: list[array] = []
    lines = array("q")
    for ops, native_args in zip(native.warp_ops, native.warp_args):
        args = array("q")
        offs = array("q")
        for op, arg in zip(ops, native_args):
            if op == OP_LOAD or op == OP_STORE:
                _, lanes = next(accesses)
                coalesced = coalesce(lanes.tolist(), line_bytes)
                args.append(len(coalesced))
                offs.append(len(lines))
                lines.extend(coalesced)
            else:
                args.append(arg)
                offs.append(0)
        warp_args.append(args)
        warp_offs.append(offs)
    return CompiledBody(line_bytes, native.warp_ops, warp_args, warp_offs, lines, native.launches)
