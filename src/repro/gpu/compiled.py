"""Re-lowering of thread-block bodies to another cache-line size.

A :class:`~repro.gpu.trace.TBBody` is a view into its trace's
:class:`~repro.gpu.trace.TraceArena`: the flat ``array('q')`` columns
the SMX issue loop replays, written by
:class:`~repro.gpu.trace.WarpTrace` while the trace is built at
``LINE_BYTES``-byte lines. :func:`compile_body` lowers a body again from
its per-lane addresses (runs expanded by :meth:`TBBody.accesses`),
coalescing every access, into a private arena at another line size:
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

from repro.gpu.trace import OP_COMPUTE, OP_LAUNCH, OP_LOAD, OP_STORE, TBBody, TraceArena
from repro.memory.coalescer import coalesce

__all__ = ["OP_COMPUTE", "OP_LAUNCH", "OP_LOAD", "OP_STORE", "compile_body"]


def compile_body(body: TBBody, line_bytes: int) -> TBBody:
    """Lower ``body`` at ``line_bytes`` from its per-lane addresses.

    The result views a private arena holding only this body. Op codes,
    COMPUTE cycles, the lane pool and the launch list are the body's
    own; LOAD/STORE line spans are coalesced afresh.
    """
    source = body.arena
    bounds = body.warp_bounds
    lo, hi = bounds[0], bounds[-1]
    arena = TraceArena(line_bytes)
    arena.ops = source.ops[lo:hi]
    arena.lane_counts = source.lane_counts[body.access_lo : body.access_hi]
    arena.lane_steps = source.lane_steps[body.access_lo : body.access_hi]
    arena.lanes = source.lanes[body.lane_lo : body.lane_hi]
    args, offs, lines = arena.args, arena.offs, arena.lines
    accesses = body.accesses()
    for op, arg in zip(arena.ops, source.args[lo:hi]):
        offs.append(len(lines))
        if op == OP_LOAD or op == OP_STORE:
            _, lanes = next(accesses)
            coalesced = coalesce(lanes.tolist(), line_bytes)
            args.append(len(coalesced))
            lines.extend(coalesced)
        else:
            args.append(arg)
    return TBBody.view(
        arena,
        tuple(b - lo for b in bounds),
        (0, len(lines)),
        (0, len(arena.lane_counts)),
        (0, len(arena.lanes)),
        body.launch_table,
    )
