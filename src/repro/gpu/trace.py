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
replays at ``LINE_BYTES``-byte lines, so a trace is coalesced once,
when it is built, and never at place time. Ranges of elements are
lowered arithmetically; scattered accesses go through the coalescer
once. The line size is a property of the trace format, not of the
machine (:class:`~repro.gpu.config.GPUConfig` accepts no other): a
trace keeps each access only as its coalesced lines, never as per-lane
byte addresses, and every reader (the engine, the trace record, the
static analyses) works on those lines.

A whole trace lives in one :class:`TraceArena`: one set of those
columns, laid out as in the trace record. A :class:`TBBody` appends its
warps' columns to the arena when it is made and is from then on a view
of them (its bounds and its launch list), so a trace of many small
thread blocks costs a few objects per body, not a few per warp column.

:class:`Instr` and the :func:`compute`/:func:`load`/:func:`store`/
:func:`launch` helpers describe single hand-written instructions (tests,
examples); a :class:`TBBody` built from lists of them lowers each one
through a :class:`WarpTrace`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.gpu.config import LINE_BYTES
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

WARP_SIZE = 32


class TraceArena:
    """The instruction columns of one trace, shared by all its bodies.

    Every :class:`TBBody` of a trace appends its warps here, body after
    body and warp after warp, and keeps only its bounds in these
    ``array('q')`` columns, laid out as in the trace record
    (:mod:`repro.gpu.serialize`, which stores all of them but ``offs``):

    ``ops``
        the op code (``OP_*``) of each instruction,
    ``args``
        COMPUTE cycle count, LOAD/STORE coalesced line count, LAUNCH
        index into the owning body's launch list,
    ``offs``
        where the instruction's coalesced lines start in ``lines``: the
        arena's running line count (a COMPUTE or LAUNCH spans no lines),
    ``lines``
        coalesced line addresses (byte address // ``LINE_BYTES``).

    The SMX issue loop indexes these columns directly. Columns are only
    ever appended to, so a body's bounds stay valid.
    """

    __slots__ = ("ops", "args", "offs", "lines")

    def __init__(self) -> None:
        self.ops = array("q")
        self.args = array("q")
        self.offs = array("q")
        self.lines = array("q")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceArena(instrs={len(self.ops)}, lines={len(self.lines)})"


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
    :class:`TraceArena` columns at ``LINE_BYTES`` (offsets and launch
    indices local to the warp). An access has at most ``WARP_SIZE``
    lanes. The array-level methods take any object with
    ``addrs(indices)`` and ``addr_range(start, stop)``
    (:class:`repro.workloads.base.Array`) and issue one instruction per
    ``WARP_SIZE`` elements.

    A :class:`TBBody` copies the trace's columns into its arena when it
    is made; what is appended later does not reach the body.
    """

    __slots__ = ("ops", "args", "offs", "lines", "launches")

    def __init__(self) -> None:
        self.ops = array("q")
        self.args = array("q")
        self.offs = array("q")
        self.lines = array("q")
        self.launches: list[LaunchSpec] = []

    # ----- lane-level ----------------------------------------------------------
    def access(self, op: int, addresses: Sequence[int]) -> "WarpTrace":
        """One LOAD/STORE over ``addresses`` (one byte address per lane,
        negative for an inactive lane), coalesced here, once."""
        if len(addresses) > WARP_SIZE:
            raise ValueError(f"a warp access has at most {WARP_SIZE} lanes, not {len(addresses)}")
        lines = coalesce(addresses, LINE_BYTES)
        self.ops.append(op)
        self.args.append(len(lines))
        self.offs.append(len(self.lines))
        self.lines.extend(lines)
        return self

    def access_range(self, op: int, addresses: range) -> "WarpTrace":
        """LOAD/STOREs over an ascending, non-negative ``range`` of byte
        addresses, one instruction per ``WARP_SIZE`` lanes.

        :func:`_run_lines` coalesces each instruction's lanes
        arithmetically.
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
            span = _run_lines(begin, last, step)
            ops.append(op)
            args.append(len(span))
            offs.append(len(lines))
            lines.extend(span)
        return self

    def append(self, instr: Instr) -> "WarpTrace":
        """Lower one hand-written :class:`Instr`."""
        op = instr.op
        if op == OP_COMPUTE:
            return self.compute(instr.cycles)
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
            self.offs.append(len(self.lines))
        return self

    def launch(self, spec: "LaunchSpec") -> "WarpTrace":
        self.ops.append(OP_LAUNCH)
        self.args.append(len(self.launches))
        self.offs.append(len(self.lines))
        self.launches.append(spec)
        return self


def _run_lines(first: int, last: int, step: int) -> Sequence[int]:
    """Coalesced lines of the lanes ``first, first + step, ..., last``
    (non-negative, ``step > 0``), ascending like :func:`coalesce`'s.

    A step of at most one line touches every line between the two ends;
    a longer one puts each lane on a line of its own.
    """
    first_line, last_line = first // LINE_BYTES, last // LINE_BYTES
    if first_line == last_line:
        return (first_line,)
    if step <= LINE_BYTES:
        return range(first_line, last_line + 1)
    return [a // LINE_BYTES for a in range(first, last + 1, step)]


def _rebase_launches(ops: array, args: array, base: int) -> array:
    """A warp's launch indices moved ``base`` entries into the body's list."""
    return array("q", [a + base if op == OP_LAUNCH else a for op, a in zip(ops, args)])


class TBBody:
    """The static behaviour of one thread block: one trace per warp.

    ``warps`` is a list of :class:`WarpTrace` builders (or of lists of
    :class:`Instr`, lowered here). Their columns are appended to
    ``arena`` (a fresh private :class:`TraceArena` when none is given),
    and the body is a view of them: ``warp_bounds`` holds the warps'
    instruction bounds (warp ``w`` is ``warp_bounds[w]`` up to
    ``warp_bounds[w + 1]``), ``line_lo``/``line_hi`` its bounds in the
    line pool, and ``launch_table`` the launch specs its LAUNCH
    arguments index.
    """

    __slots__ = ("arena", "warp_bounds", "line_lo", "line_hi", "launch_table")

    def __init__(
        self,
        warps: Sequence[WarpTrace | Iterable[Instr]],
        arena: Optional[TraceArena] = None,
    ) -> None:
        if not warps:
            raise ValueError("a thread block needs at least one warp")
        if arena is None:
            arena = TraceArena()
        traces = [w if isinstance(w, WarpTrace) else _lower(w) for w in warps]
        if not all(t.ops for t in traces):
            # its program counter would start on the next body's instructions
            raise ValueError("a warp needs at least one instruction")
        ops, args, offs, lines = arena.ops, arena.args, arena.offs, arena.lines
        self.arena = arena
        self.line_lo = len(lines)
        bounds = [len(ops)]
        launches: list[LaunchSpec] = []
        for t in traces:
            # C-level extends; a warp's line offsets move past the lines
            # already in the arena, its launch indices past earlier warps'
            base = len(lines)
            ops += t.ops
            if launches and t.launches:
                args += _rebase_launches(t.ops, t.args, len(launches))
            else:
                args += t.args
            if base:
                offs.extend(map(base.__add__, t.offs))
            else:
                offs += t.offs
            lines += t.lines
            launches += t.launches
            bounds.append(len(ops))
        self.warp_bounds = tuple(bounds)
        self.line_hi = len(lines)
        self.launch_table = tuple(launches)

    @classmethod
    def view(
        cls,
        arena: TraceArena,
        warp_bounds: tuple[int, ...],
        lines: tuple[int, int],
        launch_table: tuple["LaunchSpec", ...],
    ) -> "TBBody":
        """A body over columns already in ``arena`` (the trace-record
        decoder): ``lines`` is its ``(lo, hi)`` bounds in the line pool."""
        body = cls.__new__(cls)
        body.arena = arena
        body.warp_bounds = warp_bounds
        body.line_lo, body.line_hi = lines
        body.launch_table = launch_table
        return body

    @property
    def num_warps(self) -> int:
        return len(self.warp_bounds) - 1

    def instruction_count(self) -> int:
        """Weighted dynamic instruction count of this body alone."""
        lo, hi = self.warp_bounds[0], self.warp_bounds[-1]
        ops, args = self.arena.ops[lo:hi], self.arena.args[lo:hi]
        return hi - lo + sum(a - 1 for op, a in zip(ops, args) if op == OP_COMPUTE)

    def launches(self) -> list["LaunchSpec"]:
        """All launch specs embedded in this body, in trace order."""
        return list(self.launch_table)

    def touched_lines(self) -> set[int]:
        """Cache lines referenced by this body's loads and stores."""
        return set(self.arena.lines[self.line_lo : self.line_hi])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TBBody(warps={self.num_warps}, "
            f"instrs={self.warp_bounds[-1] - self.warp_bounds[0]}, "
            f"lines={self.line_hi - self.line_lo})"
        )


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
        for spec in reversed(body.launch_table):
            stack.extend(reversed(spec.bodies))
    return out
