"""Warp instruction traces, stored as their lowering.

The simulator is trace-driven: a thread block's behaviour is one
instruction stream per warp, produced ahead of time by a workload
generator. Four instruction kinds exist:

``COMPUTE``
    Occupies the warp (and the SMX issue port) for ``cycles`` cycles and
    counts ``cycles`` executed instructions toward IPC. Used to abstract
    arithmetic between memory operations.
``LOAD``
    A warp-wide global load of one byte address per active lane. The
    warp stalls until the slowest coalesced transaction returns.
``STORE``
    A warp-wide global store; write-through, the warp does not stall
    (fire-and-forget, as on real hardware).
``LAUNCH``
    A device-side launch (CDP kernel or DTBL thread-block group). The
    attached :class:`LaunchSpec` describes the child thread blocks.

Traces are built by :class:`WarpTrace`, which lowers every instruction
as it is appended: it writes the flat columns the SMX issue loop
replays (a :class:`CompiledBody` at ``LINE_BYTES``-byte lines), so a
trace is coalesced once, when it is built, and never at place time.
Ranges of elements are lowered arithmetically; scattered accesses go
through the coalescer once. The builder also keeps every memory
access's per-lane byte addresses in one flat pool, which the static
analyses, the trace record and re-lowering for another line size
(:func:`repro.gpu.compiled.compile_body`) read. A scattered access lists
its lanes there; a range access keeps a *run*, its first address and
its stride (``lane_steps``), and :meth:`TBBody.accesses` expands it.

:class:`Instr` and the :func:`compute`/:func:`load`/:func:`store`/
:func:`launch` helpers describe single hand-written instructions (tests,
examples); a :class:`TBBody` built from lists of them lowers each one
through a :class:`WarpTrace`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.memory.coalescer import coalesce


class Op(IntEnum):
    COMPUTE = 0
    LOAD = 1
    STORE = 2
    LAUNCH = 3


# plain-int op codes: array('q') hands back ordinary ints, so the issue
# loop and the builder compare against these instead of IntEnum members
OP_COMPUTE: int = int(Op.COMPUTE)
OP_LOAD: int = int(Op.LOAD)
OP_STORE: int = int(Op.STORE)
OP_LAUNCH: int = int(Op.LAUNCH)

#: line size the builder lowers to (Kepler's 128-byte L1/L2 lines)
LINE_BYTES = 128
WARP_SIZE = 32


class CompiledBody:
    """One thread-block body lowered to flat instruction columns.

    ``warp_ops[w][i]`` / ``warp_args[w][i]`` / ``warp_offs[w][i]`` are
    the columns of warp ``w``'s ``i``-th instruction:

    ``ops``
        the op code (``OP_*``),
    ``args``
        COMPUTE cycle count, LOAD/STORE coalesced line count, LAUNCH
        index into the body's launch table,
    ``offs``
        LOAD/STORE start offset into the body-wide ``lines`` pool (zero
        for other ops).

    ``lines`` (coalesced line addresses, byte address // ``line_bytes``)
    and ``launches`` are shared across all warps of the body, so every
    thread block replaying the same body shares one object. Instances
    are immutable after construction.
    """

    __slots__ = ("line_bytes", "warp_ops", "warp_args", "warp_offs", "lines", "launches")

    def __init__(
        self,
        line_bytes: int,
        warp_ops: list[array],
        warp_args: list[array],
        warp_offs: list[array],
        lines: array,
        launches: list["LaunchSpec"],
    ) -> None:
        self.line_bytes = line_bytes
        self.warp_ops = warp_ops
        self.warp_args = warp_args
        self.warp_offs = warp_offs
        self.lines = lines
        self.launches = launches

    @property
    def num_warps(self) -> int:
        return len(self.warp_ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        instrs = sum(len(o) for o in self.warp_ops)
        return (
            f"CompiledBody(warps={self.num_warps}, instrs={instrs}, "
            f"pool={len(self.lines)}, line_bytes={self.line_bytes})"
        )


@dataclass(slots=True)
class Instr:
    """One hand-written trace instruction. Construct via the helpers below."""

    op: int
    cycles: int = 1
    addresses: Optional[tuple[int, ...]] = None
    launch: Optional["LaunchSpec"] = None


def compute(cycles: int) -> Instr:
    """``cycles`` back-to-back arithmetic instructions."""
    if cycles < 1:
        raise ValueError("compute() needs at least one cycle")
    return Instr(Op.COMPUTE, cycles=cycles)


def load(addresses: tuple[int, ...] | list[int]) -> Instr:
    """A warp-wide global load of one byte address per lane."""
    return Instr(Op.LOAD, addresses=tuple(addresses))


def store(addresses: tuple[int, ...] | list[int]) -> Instr:
    """A warp-wide global store of one byte address per lane."""
    return Instr(Op.STORE, addresses=tuple(addresses))


def launch(spec: "LaunchSpec") -> Instr:
    """A device-side child launch."""
    return Instr(Op.LAUNCH, launch=spec)


class WarpTrace:
    """Builder for one warp's instruction stream, lowered as it is appended.

    ``ops``/``args``/``offs``/``lines``/``launches`` are this warp's
    :class:`CompiledBody` columns at ``LINE_BYTES`` (offsets and launch
    indices local to the warp); ``lane_counts`` holds the lane count of
    each LOAD/STORE and ``lanes`` their per-lane byte addresses, in trace
    order. ``lane_steps`` holds each access's stride: 0 when ``lanes``
    lists its addresses, ``s > 0`` when ``lanes`` holds only its first
    address and lane ``k`` is at ``first + k*s`` (a run). The array-level
    methods take any object with ``addrs(indices)`` and
    ``addr_range(start, stop)`` (:class:`repro.workloads.base.Array`) and
    issue one instruction per ``WARP_SIZE`` elements.

    A trace must not be appended to once a :class:`TBBody` holds it.
    """

    __slots__ = ("ops", "args", "offs", "lines", "lane_counts", "lane_steps", "lanes", "launches")

    def __init__(self) -> None:
        self.ops = array("q")
        self.args = array("q")
        self.offs = array("q")
        self.lines = array("q")
        self.lane_counts = array("q")
        self.lane_steps = array("q")
        self.lanes = array("q")
        self.launches: list[LaunchSpec] = []

    # ----- lane-level ----------------------------------------------------------
    def access(self, op: int, addresses: Sequence[int]) -> "WarpTrace":
        """One LOAD/STORE over ``addresses`` (one byte address per lane,
        negative for an inactive lane), coalesced here, once."""
        lines = coalesce(addresses, LINE_BYTES)
        self.ops.append(op)
        self.args.append(len(lines))
        self.offs.append(len(self.lines))
        self.lines.extend(lines)
        self.lane_counts.append(len(addresses))
        self.lane_steps.append(0)
        self.lanes.extend(addresses)
        return self

    def access_range(self, op: int, addresses: range) -> "WarpTrace":
        """LOAD/STOREs over an ascending, non-negative ``range`` of byte
        addresses, one instruction per ``WARP_SIZE`` lanes.

        Each instruction keeps its lanes as a run (first address and
        step), and :func:`_run_lines` coalesces it arithmetically.
        """
        if addresses.step < 0 or addresses.start < 0:
            raise ValueError(f"access_range needs an ascending, non-negative range: {addresses}")
        if not addresses:
            return self
        ops, args, offs, lines = self.ops, self.args, self.offs, self.lines
        step = addresses.step
        final = addresses[-1]
        width = WARP_SIZE * step
        for begin in range(addresses.start, final + 1, width):
            last = min(begin + width - step, final)
            span = _run_lines(begin, last, step, LINE_BYTES)
            ops.append(op)
            args.append(len(span))
            offs.append(len(lines))
            lines.extend(span)
            self.lane_counts.append((last - begin) // step + 1)
            self.lane_steps.append(step)
            self.lanes.append(begin)
        return self

    def append(self, instr: Instr) -> "WarpTrace":
        """Lower one hand-written :class:`Instr`."""
        op = instr.op
        if op == OP_COMPUTE:
            self.ops.append(OP_COMPUTE)
            self.args.append(instr.cycles)
            self.offs.append(0)
            return self
        if op == OP_LAUNCH:
            if instr.launch is None:
                raise ValueError("a LAUNCH instruction needs a LaunchSpec")
            return self.launch(instr.launch)
        return self.access(int(op), instr.addresses or ())

    def _accesses(self, op: int, addresses: list[int]) -> "WarpTrace":
        for i in range(0, len(addresses), WARP_SIZE):
            self.access(op, addresses[i : i + WARP_SIZE])
        return self

    # ----- array-level ---------------------------------------------------------
    def _memory(self, op: int, array, indices: Iterable[int]) -> "WarpTrace":
        if type(indices) is range and indices.step == 1:
            return self.access_range(op, array.addr_range(indices.start, indices.stop))
        return self._accesses(op, array.addrs(indices))

    def load(self, array, indices: Iterable[int]) -> "WarpTrace":
        """Warp-wide loads of the given elements, 32 lanes per instruction."""
        return self._memory(OP_LOAD, array, indices)

    def load_range(self, array, start: int, count: int) -> "WarpTrace":
        """Coalesced loads of ``count`` consecutive elements."""
        return self.access_range(OP_LOAD, array.addr_range(start, start + count))

    def store(self, array, indices: Iterable[int]) -> "WarpTrace":
        return self._memory(OP_STORE, array, indices)

    def store_range(self, array, start: int, count: int) -> "WarpTrace":
        return self.access_range(OP_STORE, array.addr_range(start, start + count))

    def gather(self, array, indices: Iterable[int]) -> "WarpTrace":
        """Alias of :meth:`load` that documents a scattered access."""
        return self._memory(OP_LOAD, array, indices)

    # ----- compute / control ---------------------------------------------------
    def compute(self, cycles: int) -> "WarpTrace":
        if cycles > 0:
            self.ops.append(OP_COMPUTE)
            self.args.append(cycles)
            self.offs.append(0)
        return self

    def launch(self, spec: "LaunchSpec") -> "WarpTrace":
        self.ops.append(OP_LAUNCH)
        self.args.append(len(self.launches))
        self.offs.append(0)
        self.launches.append(spec)
        return self


def _run_lines(first: int, last: int, step: int, line_bytes: int) -> Sequence[int]:
    """Coalesced lines of the lanes ``first, first + step, ..., last``
    (non-negative, ``step > 0``), ascending like :func:`coalesce`'s.

    A step of at most one line touches every line between the two ends;
    a longer one puts each lane on a line of its own.
    """
    first_line, last_line = first // line_bytes, last // line_bytes
    if first_line == last_line:
        return (first_line,)
    if step <= line_bytes:
        return range(first_line, last_line + 1)
    return [a // line_bytes for a in range(first, last + 1, step)]


def _rebase_offs(ops: array, offs: array, base: int) -> array:
    """A warp's line offsets moved ``base`` entries into the body's pool."""
    return array(
        "q", [o + base if op == OP_LOAD or op == OP_STORE else 0 for op, o in zip(ops, offs)]
    )


def _rebase_launches(ops: array, args: array, base: int) -> array:
    """A warp's launch indices moved ``base`` entries into the body's table."""
    return array("q", [a + base if op == OP_LAUNCH else a for op, a in zip(ops, args)])


class TBBody:
    """The static behaviour of one thread block: one trace per warp.

    ``warps`` is a list of :class:`WarpTrace` builders (or of lists of
    :class:`Instr`, lowered here). The body stores only the lowered
    columns (``columns``, a :class:`CompiledBody` at ``LINE_BYTES``) and
    the per-lane address pool (``lane_counts``/``lane_steps``/``lanes``,
    laid out as in :class:`WarpTrace`), joined across its warps.
    """

    __slots__ = ("columns", "lane_counts", "lane_steps", "lanes", "_relowered")

    def __init__(self, warps: Sequence[WarpTrace | Iterable[Instr]]) -> None:
        if not warps:
            raise ValueError("a thread block needs at least one warp")
        traces = [w if isinstance(w, WarpTrace) else _lower(w) for w in warps]
        first, *rest = traces
        warp_args, warp_offs = [first.args], [first.offs]
        lines, lanes, launches = first.lines, first.lanes, first.launches
        lane_counts, lane_steps = first.lane_counts, first.lane_steps
        if rest:
            # later warps append to copies of the first warp's pools, and
            # their offsets and launch indices move past what precedes them
            lines, lanes = lines[:], lanes[:]
            lane_counts, lane_steps = lane_counts[:], lane_steps[:]
            launches = list(launches)
            for t in rest:
                warp_offs.append(_rebase_offs(t.ops, t.offs, len(lines)))
                warp_args.append(
                    _rebase_launches(t.ops, t.args, len(launches)) if t.launches else t.args
                )
                lines += t.lines
                lane_counts += t.lane_counts
                lane_steps += t.lane_steps
                lanes += t.lanes
                launches += t.launches
        self.columns = CompiledBody(
            LINE_BYTES, [t.ops for t in traces], warp_args, warp_offs, lines, launches
        )
        self.lane_counts = lane_counts
        self.lane_steps = lane_steps
        self.lanes = lanes
        self._relowered = None

    @classmethod
    def from_columns(
        cls, columns: CompiledBody, lane_counts: array, lane_steps: array, lanes: array
    ) -> "TBBody":
        """A body over already-lowered columns (the trace-record decoder)."""
        body = cls.__new__(cls)
        body.columns = columns
        body.lane_counts = lane_counts
        body.lane_steps = lane_steps
        body.lanes = lanes
        body._relowered = None
        return body

    def compiled(self, line_bytes: int) -> CompiledBody:
        """The flat-array lowering of this body at ``line_bytes``.

        At the line size the body was built at this is ``columns`` as
        is; another size is re-lowered from the lane pool once and
        cached (machine configurations in one process virtually always
        agree on the line size).
        """
        columns = self.columns
        if line_bytes == columns.line_bytes:
            return columns
        relowered = self._relowered
        if relowered is None or relowered.line_bytes != line_bytes:
            from repro.gpu import compiled

            relowered = self._relowered = compiled.compile_body(self, line_bytes)
        return relowered

    @property
    def num_warps(self) -> int:
        return len(self.columns.warp_ops)

    def instruction_count(self) -> int:
        """Weighted dynamic instruction count of this body alone."""
        columns = self.columns
        total = 0
        for ops, args in zip(columns.warp_ops, columns.warp_args):
            total += len(ops) + sum(a - 1 for op, a in zip(ops, args) if op == OP_COMPUTE)
        return total

    def launches(self) -> list["LaunchSpec"]:
        """All launch specs embedded in this body, in trace order."""
        return list(self.columns.launches)

    def accesses(self) -> Iterator[tuple[int, array]]:
        """``(op, per-lane byte addresses)`` of each LOAD/STORE, in trace
        order, with every run expanded."""
        counts, steps, lanes = self.lane_counts, self.lane_steps, self.lanes
        access = pos = 0
        for ops in self.columns.warp_ops:
            for op in ops:
                if op == OP_LOAD or op == OP_STORE:
                    n, step = counts[access], steps[access]
                    access += 1
                    if step:
                        first = lanes[pos]
                        yield op, array("q", range(first, first + n * step, step))
                        pos += 1
                    else:
                        yield op, lanes[pos : pos + n]
                        pos += n

    def touched_lines(self, line_bytes: int = LINE_BYTES) -> set[int]:
        """Cache lines referenced by this body's loads and stores."""
        if line_bytes == self.columns.line_bytes:
            return set(self.columns.lines)
        return {a // line_bytes for _, lanes in self.accesses() for a in lanes if a >= 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TBBody({self.columns!r})"


def _lower(instrs: Iterable[Instr]) -> WarpTrace:
    trace = WarpTrace()
    for instr in instrs:
        trace.append(instr)
    return trace


@dataclass(slots=True)
class LaunchSpec:
    """A device-side launch: the child thread blocks and their shape.

    ``threads_per_tb``/``regs_per_thread``/``smem_per_tb`` describe the
    resource requirements of every child TB in the group. For DTBL these
    must match the parent kernel's configuration for the group to coalesce
    onto it (our workloads always launch matching configurations, as the
    DTBL paper's benchmarks do).
    """

    bodies: list[TBBody]
    threads_per_tb: int = 256
    regs_per_thread: int = 24
    smem_per_tb: int = 0
    name: str = "child"

    def __post_init__(self) -> None:
        if not self.bodies:
            raise ValueError("a launch needs at least one child thread block")
        if self.threads_per_tb < 1:
            raise ValueError("threads_per_tb must be positive")


def walk_bodies(bodies: list[TBBody]) -> list[TBBody]:
    """All bodies reachable from ``bodies`` through nested launches
    (including the roots), in depth-first order."""
    out: list[TBBody] = []
    stack = list(reversed(bodies))
    while stack:
        body = stack.pop()
        out.append(body)
        for spec in reversed(body.columns.launches):
            stack.extend(reversed(spec.bodies))
    return out
