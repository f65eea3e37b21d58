"""Lowered-trace equivalence: the builder's columns vs coalescing each access.

:class:`~repro.gpu.trace.WarpTrace` lowers a trace as it is built (ranges
arithmetically, gathers through the coalescer) into the ``array``
columns the SMX issue loop indexes directly. The lowering must be purely
structural: for every instruction the columns must encode exactly what
interpreting it would produce — op code, compute latency, coalesced line
list, launch target. This suite pins that property against hand-written
:class:`Instr` lists, whose accesses :func:`coalesce` lowers at 128-byte
lines, the only line size a trace has.
"""

import random
from array import array

import pytest

from repro.gpu.trace import (
    OP_COMPUTE,
    OP_LAUNCH,
    OP_LOAD,
    OP_STORE,
    Instr,
    LaunchSpec,
    Op,
    TBBody,
    TraceArena,
    WarpTrace,
    compute,
    launch,
    load,
    store,
    walk_bodies,
)
from repro.gpu.serialize import spec_from_bytes, spec_to_bytes
from repro.harness.execution import kernel_for
from repro.harness.registry import benchmark_names
from repro.memory.coalescer import coalesce
from repro.workloads.base import AddressSpace
from tests.conftest import access_lines, body_lines, warp_columns

LINE_BYTES = 128


def assert_interprets(body: TBBody, warps: list[list[Instr]]) -> None:
    """Every column entry must match interpreting the original Instr."""
    assert body.num_warps == len(warps)
    pool = body_lines(body)
    for warp, (ops, args, offs) in zip(warps, warp_columns(body)):
        assert len(ops) == len(args) == len(offs) == len(warp)
        for i, instr in enumerate(warp):
            assert ops[i] == int(instr.op)
            if ops[i] == OP_COMPUTE:
                assert args[i] == instr.cycles
            elif ops[i] == OP_LAUNCH:
                assert body.launch_table[args[i]] is instr.launch
            else:
                assert ops[i] in (OP_LOAD, OP_STORE)
                lines = list(pool[offs[i] : offs[i] + args[i]])
                assert lines == coalesce(list(instr.addresses), LINE_BYTES)


def assert_same_columns(a: TBBody, b: TBBody) -> None:
    """Two bodies lower alike: the same per-warp columns (line offsets
    relative to each body's own lines), line pool and launches, wherever
    in their arenas they sit."""
    assert warp_columns(a) == warp_columns(b)
    assert body_lines(a) == body_lines(b)
    assert len(a.launch_table) == len(b.launch_table)
    assert all(x is y for x, y in zip(a.launch_table, b.launch_table))


def random_warps(rng: random.Random) -> list[list[Instr]]:
    """Random multi-warp instruction lists covering every op kind."""
    child = TBBody(warps=[[compute(1)]])
    warps = []
    for _ in range(rng.randint(1, 4)):
        instrs: list[Instr] = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.randrange(4)
            if kind == 0:
                instrs.append(compute(rng.randint(1, 50)))
            elif kind == 3:
                instrs.append(
                    launch(LaunchSpec(bodies=[child], threads_per_tb=rng.choice((32, 256))))
                )
            else:
                # scattered, duplicated, unsorted lanes (0-32 of them)
                addrs = [rng.randrange(0, 1 << 20) for _ in range(rng.randint(0, 32))]
                instrs.append(load(addrs) if kind == 1 else store(addrs))
        warps.append(instrs)
    return warps


@pytest.mark.parametrize("bench_name", benchmark_names())
def test_real_workload_bodies_lower_to_coalesced_spans(bench_name):
    """Every access of a real trace spans what :func:`coalesce` returns:
    distinct lines in ascending order, at most one per lane."""
    bodies = walk_bodies(kernel_for(bench_name, "tiny", 7).bodies)
    assert bodies, "workload produced no bodies"
    for body in bodies:
        for _, lines in access_lines(body):
            assert len(lines) <= 32
            assert all(a < b for a, b in zip(lines, lines[1:]))


@pytest.mark.parametrize("seed", range(20))
def test_random_bodies_compile_equivalently(seed):
    warps = random_warps(random.Random(seed))
    assert_interprets(TBBody(warps=warps), warps)


@pytest.mark.parametrize("elem_bytes", [1, 4, 8, 64, 128, 256])
@pytest.mark.parametrize("start,count", [(0, 70), (3, 29), (5, 1), (31, 33)])
def test_range_lowering_matches_the_coalescer(elem_bytes, start, count):
    space = AddressSpace()
    space.alloc("pad", 5, elem_bytes=1)
    arr = space.alloc("a", 200, elem_bytes=elem_bytes, align=4)
    built = TBBody(warps=[WarpTrace().load_range(arr, start, count)])
    addrs = arr.addrs(list(range(start, start + count)))
    expected = [load(addrs[i : i + 32]) for i in range(0, count, 32)]
    assert_interprets(built, [expected])


def test_native_line_size_never_relowers(monkeypatch):
    """A run at the builder's line size replays the stored columns: nothing
    is lowered when thread blocks are placed."""
    from repro.core import make_scheduler
    from repro.dynpar import make_model
    from repro.gpu import compiled
    from repro.gpu.engine import Engine
    from repro.harness.registry import experiment_config

    calls = []
    monkeypatch.setattr(compiled, "compile_body", lambda *a: calls.append(a))
    spec = kernel_for("amr", "tiny", 7)
    config = experiment_config()
    assert config.line_bytes == LINE_BYTES
    Engine(config, make_scheduler("adaptive-bind"), make_model("dtbl"), [spec]).run()
    assert calls == []


def test_compile_body_returns_the_body_at_128_byte_lines_only():
    from repro.gpu.compiled import compile_body

    body = TBBody(warps=[[load([0, 4])]])
    assert compile_body(body, LINE_BYTES) is body
    with pytest.raises(ValueError, match="128-byte lines only"):
        compile_body(body, 64)


def test_zero_lane_access_lowers_to_an_empty_span():
    body = TBBody(warps=[[load([]), compute(2), store([-1, -1])]])
    assert list(body.arena.args) == [0, 2, 0]
    assert len(body.arena.lines) == 0
    assert [list(lines) for _, lines in access_lines(body)] == [[], []]


def test_an_access_wider_than_a_warp_is_refused():
    addresses = list(range(0, 33 * 4, 4))
    with pytest.raises(ValueError, match="at most 32 lanes, not 33"):
        WarpTrace().access(OP_LOAD, addresses)
    with pytest.raises(ValueError, match="at most 32 lanes"):
        TBBody(warps=[[load(addresses)]])
    assert list(WarpTrace().access(OP_LOAD, addresses[:32]).args) == [1]


def test_launch_table_preserves_duplicates_in_trace_order():
    child = TBBody(warps=[[compute(1)]])
    spec = LaunchSpec(bodies=[child])
    body = TBBody(warps=[[launch(spec), compute(2), launch(spec)]])
    ops, args = body.arena.ops, body.arena.args
    # one table entry per LAUNCH instruction, in issue order
    assert list(ops) == [int(Op.LAUNCH), int(Op.COMPUTE), int(Op.LAUNCH)]
    assert body.launch_table[args[0]] is spec
    assert body.launch_table[args[2]] is spec
    assert len(body.launch_table) == 2


def test_later_warps_index_the_body_pools():
    a = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])], name="a")
    b = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])], name="b")
    warps = [
        [load([0, 4]), launch(a)],
        [compute(1), store([256, 512]), launch(b), load([128])],
    ]
    body = TBBody(warps=warps)
    assert_interprets(body, warps)
    _, args, offs = warp_columns(body)[1]
    assert list(offs) == [0, 1, 0, 3]
    assert list(args) == [1, 2, 1, 1]
    assert [s.name for s in body.launches()] == ["a", "b"]


# --- range lowering ----------------------------------------------------------
#
# A range access is lowered arithmetically (one line span per instruction);
# the same addresses given as a list go through the coalescer. Every reader
# must see the two alike.


def listed_and_run_bodies(addresses: range) -> tuple[TBBody, TBBody]:
    """One body per storage, each with a gather and ``addresses`` loaded in
    one warp and stored in another."""

    def body(as_run: bool) -> TBBody:
        first, second = WarpTrace().access(OP_LOAD, [300, 17]), WarpTrace()
        for trace, op in ((first, OP_LOAD), (second, OP_STORE)):
            if as_run:
                trace.access_range(op, addresses)
            else:
                for i in range(0, len(addresses), 32):
                    trace.access(op, list(addresses[i : i + 32]))
            trace.compute(2)
        return TBBody(warps=[first, second])

    return body(False), body(True)


@pytest.mark.parametrize("step", [1, 4, 8, 128, 136, 256, 1000])
@pytest.mark.parametrize("start,count", [(0, 70), (4000, 33), (5, 1)])
def test_a_run_reads_like_its_listed_lanes(step, start, count):
    from repro.analysis.locality import inter_tb_reuse

    addresses = range(start, start + count * step, step)
    listed, run = listed_and_run_bodies(addresses)
    instrs = -(-count // 32)
    assert len(list(access_lines(run))) == 1 + 2 * instrs  # the gather, then the ranges
    assert_same_columns(run, listed)
    assert run.touched_lines() == listed.touched_lines()
    assert inter_tb_reuse([run, listed, run]) == inter_tb_reuse([listed, run, listed])


def test_access_range_rejects_descending_and_negative_ranges():
    with pytest.raises(ValueError, match="ascending, non-negative"):
        WarpTrace().access_range(OP_LOAD, range(64, 0, -4))
    with pytest.raises(ValueError, match="ascending, non-negative"):
        WarpTrace().access_range(OP_LOAD, range(-8, 64, 4))


# --- one arena per trace -----------------------------------------------------
#
# A trace's bodies are views into one TraceArena; a body holds only bounds
# and its launch list, never arrays of its own.


def assert_tiles_one_arena(bodies: list[TBBody]) -> None:
    """Every body views the same arena, and their instruction and line
    ranges tile its columns with no gap or overlap."""
    (arena,) = {id(b.arena): b.arena for b in bodies}.values()
    for body in bodies:
        assert not any(isinstance(getattr(body, slot), array) for slot in TBBody.__slots__)
    spans = [
        (b.warp_bounds[0], b.warp_bounds[-1], b.line_lo, b.line_hi)
        for b in {id(b): b for b in bodies}.values()
    ]
    ends = (0, 0)
    for span in sorted(spans):
        assert span[0::2] == ends
        ends = span[1::2]
    assert ends == (len(arena.ops), len(arena.lines))
    assert len(arena.args) == len(arena.offs) == len(arena.ops)


@pytest.mark.parametrize("name", benchmark_names())
def test_a_built_and_a_decoded_trace_each_view_one_arena(name):
    spec = kernel_for(name, "tiny", 7)
    assert_tiles_one_arena(walk_bodies(spec.bodies))
    decoded = spec_from_bytes(spec_to_bytes(spec))
    assert_tiles_one_arena(walk_bodies(decoded.bodies))
    assert walk_bodies(decoded.bodies)[0].arena is not walk_bodies(spec.bodies)[0].arena


def test_a_hand_built_body_gets_a_private_arena():
    first = TBBody(warps=[[load([0, 4]), compute(2)]])
    second = TBBody(warps=[[compute(1)], [store([128])]])
    assert first.arena is not second.arena
    assert_tiles_one_arena([first])
    assert_tiles_one_arena([second])
    assert second.warp_bounds == (0, 1, 2)


def test_a_warp_without_instructions_is_rejected():
    # its program counter would start on the next body's instructions
    with pytest.raises(ValueError, match="at least one instruction"):
        TBBody(warps=[[compute(1)], WarpTrace()])


def test_bodies_append_to_a_given_arena():
    arena = TraceArena()
    first = TBBody(warps=[[load([0, 4]), compute(2)]], arena=arena)
    second = TBBody(warps=[[store([128, 256])], [load([512])]], arena=arena)
    assert first.arena is second.arena is arena
    assert_tiles_one_arena([first, second])
    assert second.warp_bounds == (2, 3, 4) and (second.line_lo, second.line_hi) == (1, 4)
    # line offsets index the arena's pool directly, as the SMX reads them
    assert list(arena.offs) == [0, 1, 1, 3]
    assert [list(lines) for _, lines in access_lines(second)] == [[1, 2], [4]]
