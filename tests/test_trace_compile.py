"""Lowered-trace equivalence: the builder's columns vs coalescing each access.

:class:`~repro.gpu.trace.WarpTrace` lowers a trace as it is built (ranges
arithmetically, gathers through the coalescer) into the ``array('q')``
columns the SMX issue loop indexes directly. The lowering must be purely
structural: for every instruction the columns must encode exactly what
interpreting it would produce — op code, compute latency, coalesced line
list, launch target. This suite pins that property against hand-written
:class:`Instr` lists, against :func:`repro.gpu.compiled.compile_body`
(which coalesces every access from the per-lane pool) over every body of
real (tiny) workloads, and at other line sizes.
"""

import random

import pytest

from repro.gpu.compiled import OP_COMPUTE, OP_LAUNCH, OP_LOAD, OP_STORE, compile_body
from repro.gpu.trace import (
    Instr,
    LaunchSpec,
    Op,
    TBBody,
    WarpTrace,
    compute,
    launch,
    load,
    store,
    walk_bodies,
)
from repro.harness.execution import kernel_for
from repro.memory.coalescer import coalesce
from repro.workloads.base import AddressSpace

LINE_BYTES = 128


def assert_interprets(body: TBBody, warps: list[list[Instr]], line_bytes: int = LINE_BYTES) -> None:
    """Every column entry must match interpreting the original Instr."""
    compiled = body.compiled(line_bytes)
    assert compiled.num_warps == body.num_warps == len(warps)
    assert compiled.line_bytes == line_bytes
    for warp, ops, args, offs in zip(
        warps, compiled.warp_ops, compiled.warp_args, compiled.warp_offs
    ):
        assert len(ops) == len(args) == len(offs) == len(warp)
        for i, instr in enumerate(warp):
            assert ops[i] == int(instr.op)
            if ops[i] == OP_COMPUTE:
                assert args[i] == instr.cycles
            elif ops[i] == OP_LAUNCH:
                assert compiled.launches[args[i]] is instr.launch
            else:
                assert ops[i] in (OP_LOAD, OP_STORE)
                lines = list(compiled.lines[offs[i] : offs[i] + args[i]])
                assert lines == coalesce(list(instr.addresses), line_bytes)


def assert_same_columns(a, b) -> None:
    assert a.line_bytes == b.line_bytes
    assert a.warp_ops == b.warp_ops
    assert a.warp_args == b.warp_args
    assert a.warp_offs == b.warp_offs
    assert a.lines == b.lines
    assert len(a.launches) == len(b.launches)
    assert all(x is y for x, y in zip(a.launches, b.launches))


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


@pytest.mark.parametrize("bench_name", ["bfs-citation", "amr", "join-gaussian"])
def test_real_workload_bodies_compile_equivalently(bench_name):
    spec = kernel_for(bench_name, "tiny", 7)
    bodies = walk_bodies(spec.bodies)
    assert bodies, "workload produced no bodies"
    for body in bodies:
        assert_same_columns(body.compiled(LINE_BYTES), compile_body(body, LINE_BYTES))


@pytest.mark.parametrize("seed", range(20))
def test_random_bodies_compile_equivalently(seed):
    warps = random_warps(random.Random(seed))
    body = TBBody(warps=warps)
    assert_interprets(body, warps)
    assert_same_columns(body.compiled(LINE_BYTES), compile_body(body, LINE_BYTES))


def test_random_bodies_compile_equivalently_at_other_line_sizes():
    rng = random.Random(99)
    for line_bytes in (32, 64, 256):
        warps = random_warps(rng)
        assert_interprets(TBBody(warps=warps), warps, line_bytes)


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


def test_compiled_is_interned_per_body_and_line_size():
    warps = random_warps(random.Random(1))
    body = TBBody(warps=warps)
    first = body.compiled(LINE_BYTES)
    assert first is body.columns  # the stored columns, as built
    assert body.compiled(LINE_BYTES) is first
    other = body.compiled(64)
    assert other is not first and other.line_bytes == 64
    assert body.compiled(64) is other  # cached
    assert_interprets(body, warps, 64)


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


def test_zero_lane_access_lowers_to_an_empty_span():
    body = TBBody(warps=[[load([]), compute(2), store([-1, -1])]])
    compiled = body.compiled(LINE_BYTES)
    assert list(compiled.warp_args[0]) == [0, 2, 0]
    assert len(compiled.lines) == 0
    assert list(body.lane_counts) == [0, 2]


def test_launch_table_preserves_duplicates_in_trace_order():
    child = TBBody(warps=[[compute(1)]])
    spec = LaunchSpec(bodies=[child])
    body = TBBody(warps=[[launch(spec), compute(2), launch(spec)]])
    compiled = body.compiled(LINE_BYTES)
    # one table entry per LAUNCH instruction, in issue order
    assert [x for x in compiled.warp_ops[0]] == [int(Op.LAUNCH), int(Op.COMPUTE), int(Op.LAUNCH)]
    assert compiled.launches[compiled.warp_args[0][0]] is spec
    assert compiled.launches[compiled.warp_args[0][2]] is spec
    assert len(compiled.launches) == 2


def test_later_warps_index_the_body_pools():
    a = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])], name="a")
    b = LaunchSpec(bodies=[TBBody(warps=[[compute(1)]])], name="b")
    warps = [
        [load([0, 4]), launch(a)],
        [compute(1), store([256, 512]), launch(b), load([128])],
    ]
    body = TBBody(warps=warps)
    assert_interprets(body, warps)
    assert list(body.columns.warp_offs[1]) == [0, 1, 0, 3]
    assert list(body.columns.warp_args[1]) == [1, 2, 1, 1]
    assert [s.name for s in body.launches()] == ["a", "b"]


def test_shared_body_shares_one_compiled_object():
    child = TBBody(warps=[[compute(3)]])
    parent_a = TBBody(warps=[[launch(LaunchSpec(bodies=[child]))]])
    parent_b = TBBody(warps=[[launch(LaunchSpec(bodies=[child]))]])
    assert parent_a is not parent_b
    assert child.compiled(LINE_BYTES) is child.compiled(LINE_BYTES)
    # reachable from both parents, still one compiled instance
    seen = {
        id(b.compiled(LINE_BYTES)) for b in walk_bodies([parent_a, parent_b]) if b is child
    }
    assert len(seen) == 1


# --- lane runs ---------------------------------------------------------------
#
# A range access stores each instruction's lanes as a run (first address and
# step); the same addresses given as a list are stored lane by lane. Every
# reader must see the two alike.


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
    assert list(run.lane_steps) == [0] + [step] * instrs + [step] * instrs
    assert len(run.lanes) == 2 + 2 * instrs  # the gather's lanes, then one per run
    assert [(op, list(a)) for op, a in run.accesses()] == [
        (op, list(a)) for op, a in listed.accesses()
    ]
    for line_bytes in (32, 64, 128, 256):
        assert_same_columns(run.compiled(line_bytes), listed.compiled(line_bytes))
        assert run.touched_lines(line_bytes) == listed.touched_lines(line_bytes)
        assert inter_tb_reuse([run, listed, run], line_bytes) == inter_tb_reuse(
            [listed, run, listed], line_bytes
        )


def test_access_range_rejects_descending_and_negative_ranges():
    with pytest.raises(ValueError, match="ascending, non-negative"):
        WarpTrace().access_range(OP_LOAD, range(64, 0, -4))
    with pytest.raises(ValueError, match="ascending, non-negative"):
        WarpTrace().access_range(OP_LOAD, range(-8, 64, 4))
