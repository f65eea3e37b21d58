"""Stream Multiprocessor (SMX) model.

Each SMX tracks its resource pools (thread slots, TB slots, registers,
shared memory), the warp contexts of its resident thread blocks, and a
single-issue pipeline fed by a warp scheduler (GTO by default, LRR
optionally). One instruction issues per cycle at most; multi-cycle compute
instructions occupy the issue port for their full duration, modelling the
back-to-back arithmetic they stand for.

A resident warp replays its slice of the trace's
:class:`~repro.gpu.trace.TraceArena`: its program counter runs from the
warp's first instruction to its last in the arena's columns, which every
thread block of the trace shares.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, TYPE_CHECKING

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import TBState, ThreadBlock
from repro.gpu.trace import Op, TBBody
from repro.telemetry.events import WarpStall

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.engine import Engine

# hot-path constants: plain ints, because the lowered instruction
# columns (array('b') and array('i')) hand back ordinary ints —
# module-level bindings are one dict lookup instead of two (module
# attribute, then enum member) inside the issue loop
_OP_COMPUTE = int(Op.COMPUTE)
_OP_LOAD = int(Op.LOAD)
_OP_STORE = int(Op.STORE)
_heappush = heapq.heappush
_heappop = heapq.heappop

# The ready/stalled heaps hold ``(age, warp)`` / ``(wake, age, warp)``
# tuples. ``age`` is unique per SMX, so heap sift never reaches the warp
# objects. (Packing the key fields into one int was measured
# slower here: these heaps stay tiny, so the saved tuple comparisons
# don't cover the extra shift/mask bytecode at every push/pop site.)


class WarpContext:
    """Runtime state of one warp, replaying a lowered instruction trace.

    The static trace is the warp's slice of a body's
    :class:`~repro.gpu.trace.TraceArena`: the arena-wide ``ops``/``args``/
    ``offs`` columns, read from ``pc`` (the warp's first instruction) up
    to ``end``, the arena's coalesced-line pool (``offs`` index it
    directly) and the body's launch list. The issue loop indexes these
    arrays directly — no ``Instr`` objects are touched after dispatch.

    ``outstanding`` models memory-level parallelism: consecutive loads
    pipeline (each takes one issue cycle), and the warp only stalls when a
    *use* — any non-load instruction — is reached before the slowest
    outstanding load has returned.
    """

    __slots__ = (
        "ops",
        "args",
        "offs",
        "lines",
        "launches",
        "end",
        "pc",
        "ready_at",
        "outstanding",
        "tb",
        "age",
        "smx_id",
    )

    def __init__(
        self, body: TBBody, warp_index: int, tb: ThreadBlock, age: int, smx_id: int
    ) -> None:
        arena = body.arena
        self.ops = arena.ops
        self.args = arena.args
        self.offs = arena.offs
        self.lines = arena.lines
        self.launches = body.launch_table
        self.pc = body.warp_bounds[warp_index]
        self.end = body.warp_bounds[warp_index + 1]
        self.ready_at = 0
        self.outstanding = 0  # completion time of the slowest in-flight load
        self.tb = tb
        self.age = age  # global issue-age: smaller = older (dispatched earlier)
        self.smx_id = smx_id


class SMX:
    """One streaming multiprocessor."""

    def __init__(self, smx_id: int, config: GPUConfig) -> None:
        self.smx_id = smx_id
        self.config = config
        self.free_threads = config.max_threads_per_smx
        self.free_tb_slots = config.max_tbs_per_smx
        # dynamic residency cap, adjusted by contention-aware TB throttling
        # (Section IV-F / [12]); max_tbs_per_smx = no throttling
        self.dynamic_cap = config.max_tbs_per_smx
        self.free_registers = config.max_registers_per_smx
        self.free_smem = config.shared_mem_per_smx
        self.port_free_at = 0
        # warps ready to issue, oldest (smallest age) first
        self._ready: list[tuple[int, WarpContext]] = []
        # warps waiting on latency, keyed by (wake cycle, age)
        self._stalled: list[tuple[int, int, WarpContext]] = []
        self._current: Optional[WarpContext] = None  # GTO greedy target
        self._age_counter = itertools.count()
        self._policy = config.warp_scheduler
        # policy flags hoisted out of the per-issue hot path
        self._is_gto = self._policy == "gto"
        self.resident_tbs: set[ThreadBlock] = set()
        # next cycle the engine visits this SMX (next_event_time after a
        # visit, the current cycle after a placement); owned by Engine,
        # None = no work
        self.wake_at: Optional[int] = None
        # per-SMX memory accessor (MemoryHierarchy.accessor), bound lazily
        # on the first memory instruction
        self._mem_access = None
        # statistics
        self.issued_instructions = 0
        self.tbs_executed = 0

    @property
    def issue_cycles(self) -> int:
        """Cycles the issue port was occupied. In this model every issued
        instruction occupies the port for exactly one cycle (a COMPUTE of
        ``n`` cycles stands for ``n`` back-to-back instructions), so the
        busy-cycle count equals the instruction count."""
        return self.issued_instructions

    # ----- occupancy -------------------------------------------------------
    def can_fit(self, tb: ThreadBlock) -> bool:
        res = tb.resources
        return (
            self.free_tb_slots >= 1
            and len(self.resident_tbs) < self.dynamic_cap
            and self.free_threads >= res.threads
            and self.free_registers >= res.registers
            and self.free_smem >= res.smem_bytes
        )

    def place(self, tb: ThreadBlock, now: int, *, start_delay: int = 0) -> None:
        """Accept a thread block; its warps become issueable at
        ``now + start_delay`` (the delay models overflow-queue fetches)."""
        if not self.can_fit(tb):
            raise RuntimeError(f"SMX{self.smx_id} cannot fit {tb!r}")
        res = tb.resources
        self.free_tb_slots -= 1
        self.free_threads -= res.threads
        self.free_registers -= res.registers
        self.free_smem -= res.smem_bytes
        tb.state = TBState.RUNNING
        tb.smx_id = self.smx_id
        tb.dispatched_at = now
        body = tb.body
        tb.active_warps = body.num_warps
        self.resident_tbs.add(tb)
        start = now + start_delay
        for warp_index in range(body.num_warps):
            warp = WarpContext(body, warp_index, tb, next(self._age_counter), self.smx_id)
            warp.ready_at = start
            if start <= now:
                self._push_ready(warp)
            else:
                _heappush(self._stalled, (start, warp.age, warp))

    def release(self, tb: ThreadBlock) -> None:
        """Free a retired thread block's resources."""
        res = tb.resources
        self.free_tb_slots += 1
        self.free_threads += res.threads
        self.free_registers += res.registers
        self.free_smem += res.smem_bytes
        self.resident_tbs.discard(tb)
        self.tbs_executed += 1

    # ----- issue -----------------------------------------------------------
    def _push_ready(self, warp: WarpContext) -> None:
        _heappush(self._ready, (warp.age, warp))

    def _park(self, warp: WarpContext, wake_at: int) -> None:
        """Move a stalling warp to the wait heap."""
        _heappush(self._stalled, (wake_at, warp.age, warp))

    def _pick_warp(self, now: int) -> Optional[WarpContext]:
        """Warp-scheduler policy. GTO keeps the greedy warp until it stalls
        or retires, falling back oldest-first; LRR rotates over all ready
        warps."""
        stalled = self._stalled
        if stalled and stalled[0][0] <= now:
            # wake every warp whose stall has elapsed
            push_ready = self._push_ready
            pop = _heappop
            while stalled and stalled[0][0] <= now:
                push_ready(pop(stalled)[2])
        current = self._current
        if current is not None:
            if current.ready_at <= now:
                return current
            # demote: the greedy warp stalled between issues; park it so it
            # is not lost while a different warp becomes current
            self._current = None
            self._park(current, current.ready_at)
        if not self._ready:
            return None
        return _heappop(self._ready)[1]

    def try_issue(self, now: int, engine: "Engine") -> bool:
        """Issue at most one instruction; return True if one issued."""
        if self.port_free_at > now:
            return False
        if self._current is None and not self._ready and not self._stalled:
            return False  # nothing resident: skip the scheduler entirely
        op_load = _OP_LOAD
        while True:
            warp = self._pick_warp(now)
            if warp is None:
                return False
            ops = warp.ops
            pc = warp.pc
            # picked warps are never finished (finished warps are dropped,
            # not re-queued), so ops[pc] is the next instruction
            if warp.outstanding > now and ops[pc] != op_load:
                # the next instruction uses in-flight load data: park the
                # warp until its slowest outstanding load returns
                if self._current is warp:
                    self._current = None
                telemetry = engine.telemetry
                if telemetry.enabled:
                    telemetry.emit(
                        WarpStall(
                            time=now,
                            smx_id=self.smx_id,
                            tb_id=warp.tb.tb_id,
                            cycles=warp.outstanding - now,
                        )
                    )
                warp.ready_at = warp.outstanding
                self._park(warp, warp.outstanding)
                continue
            break
        op = ops[pc]
        arg = warp.args[pc]
        warp.pc = pc + 1
        if op == _OP_COMPUTE:
            done = now + arg
            warp.ready_at = done
            self.port_free_at = done
            self.issued_instructions += arg
        elif op == op_load:
            mem = self._mem_access
            if mem is None:
                mem = self._mem_access = engine.memory.accessor(self.smx_id)
            off = warp.offs[pc]
            done = mem(warp.lines, off, off + arg, now)
            # loads pipeline: the warp keeps issuing, stalling only at a use
            if done > warp.outstanding:
                warp.outstanding = done
            warp.ready_at = now + 1
            self.port_free_at = now + 1
            self.issued_instructions += 1
        elif op == _OP_STORE:
            # write-through, fire-and-forget: the warp does not stall
            mem = self._mem_access
            if mem is None:
                mem = self._mem_access = engine.memory.accessor(self.smx_id)
            off = warp.offs[pc]
            mem(warp.lines, off, off + arg, now, True)
            warp.ready_at = now + 1
            self.port_free_at = now + 1
            self.issued_instructions += 1
        else:  # Op.LAUNCH
            engine.handle_launch(warp.tb, warp.launches[arg], now)
            # parent-side API overhead is folded into the launch latency;
            # the launching warp itself continues after a pipeline bubble
            warp.ready_at = now + 1
            self.port_free_at = now + 1
            self.issued_instructions += 1

        if warp.pc >= warp.end:  # the warp finished
            self._current = None
            tb = warp.tb
            tb.active_warps -= 1
            if tb.active_warps == 0:
                # in-flight loads must land before the TB's slots free
                engine.schedule_retire(tb, max(warp.ready_at, warp.outstanding))
        else:
            # Invariant: the greedy (current) warp is never in the heaps.
            gto = self._is_gto
            if gto and warp.ready_at <= now + 1:
                self._current = warp
            else:
                self._current = None
                if not gto:
                    # LRR: reissue age so warps rotate round-robin
                    warp.age = next(self._age_counter)
                if warp.ready_at <= now + 1:
                    self._push_ready(warp)
                else:
                    self._park(warp, warp.ready_at)
        return True

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle (> ``now``) at which this SMX could issue
        again, or None when no resident warp can ever become issueable
        without external state changes (an empty or fully-drained SMX).

        Call it right after :meth:`try_issue` or :meth:`place`: neither
        leaves a finished warp current, so the current warp is never
        checked for completion here."""
        floor = self.port_free_at
        if floor <= now:
            floor = now + 1
        best: Optional[int] = None
        current = self._current
        if current is not None:
            best = current.ready_at if current.ready_at > floor else floor
        if self._ready and (best is None or floor < best):
            best = floor
        stalled = self._stalled
        if stalled:
            t = stalled[0][0]
            if t < floor:
                t = floor
            if best is None or t < best:
                best = t
        return best

    @property
    def idle(self) -> bool:
        return not self.resident_tbs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SMX({self.smx_id}, tbs={len(self.resident_tbs)}, "
            f"free_threads={self.free_threads})"
        )
