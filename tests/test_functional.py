"""Functional kernel frontend: real computation + recorded traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SCHEDULER_ORDER
from repro.functional import (
    BFSProgram,
    DeviceMemory,
    reference_bfs_distances,
    run_functional_kernel,
)
from repro.gpu.trace import Op, walk_bodies
from repro.harness.registry import experiment_config
from repro.harness.runner import simulate
from repro.workloads.datagen import banded_graph, citation_graph, rmat_graph


class TestDeviceMemory:
    def test_alloc_copies(self):
        mem = DeviceMemory()
        src = np.array([1, 2, 3])
        arr = mem.alloc("a", src)
        src[0] = 99
        assert arr.data[0] == 1

    def test_duplicate_name_rejected(self):
        mem = DeviceMemory()
        mem.zeros("a", 4)
        with pytest.raises(ValueError):
            mem.zeros("a", 4)

    def test_arrays_do_not_overlap(self):
        mem = DeviceMemory()
        a = mem.zeros("a", 100)
        b = mem.zeros("b", 100)
        assert a.base + a.nbytes <= b.base

    def test_only_1d(self):
        with pytest.raises(ValueError):
            DeviceMemory().alloc("m", np.zeros((2, 2)))

    def test_addr_bounds(self):
        arr = DeviceMemory().zeros("a", 4)
        with pytest.raises(IndexError):
            arr.addr(4)


class TestRunKernel:
    def test_simple_copy_kernel(self):
        mem = DeviceMemory()
        src = mem.alloc("src", np.arange(64))
        dst = mem.zeros("dst", 64)

        def copy(ctx):
            values = ctx.load(src, ctx.lanes)
            ctx.compute(2)
            ctx.store(dst, ctx.lanes, values * 2)

        spec = run_functional_kernel(copy, 64, threads_per_tb=32)
        assert np.array_equal(dst.data, np.arange(64) * 2)
        assert len(spec.bodies) == 2  # 64 threads / 32 per TB

    def test_trace_matches_computation(self):
        mem = DeviceMemory()
        src = mem.alloc("src", np.arange(32))
        dst = mem.zeros("dst", 32)

        def copy(ctx):
            ctx.store(dst, ctx.lanes, ctx.load(src, ctx.lanes))

        spec = run_functional_kernel(copy, 32)
        body = spec.bodies[0]
        assert list(body.columns.warp_ops[0]) == [Op.LOAD, Op.STORE]
        (_, load_lanes), (_, store_lanes) = body.accesses()
        assert load_lanes[0] == src.base
        assert store_lanes[0] == dst.base

    def test_device_launch_recorded_and_executed(self):
        mem = DeviceMemory()
        flag = mem.zeros("flag", 1)

        def child(ctx):
            ctx.store(flag, [0], [42])

        def parent(ctx):
            ctx.compute(1)
            ctx.launch(child, 1)

        spec = run_functional_kernel(parent, 1)
        assert flag.data[0] == 42
        launches = spec.bodies[0].launches()
        assert len(launches) == 1
        assert launches[0].name == "child"

    def test_nesting_depth_guard(self):
        def forever(ctx):
            ctx.launch(forever, 1)

        with pytest.raises(RecursionError):
            run_functional_kernel(forever, 1, max_depth=5)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            run_functional_kernel(lambda ctx: None, 0)

    def test_empty_warp_gets_placeholder(self):
        spec = run_functional_kernel(lambda ctx: None, 32)
        assert spec.bodies[0].instruction_count() == 1


class TestBFSCorrectness:
    @pytest.mark.parametrize(
        "graph",
        [
            citation_graph(300, mean_degree=6, seed=1),
            banded_graph(300, band=16, mean_degree=6, seed=2),
            rmat_graph(8, edge_factor=6, seed=3),
        ],
        ids=["citation", "banded", "rmat"],
    )
    def test_distances_match_reference(self, graph):
        program = BFSProgram(graph, source=0)
        program.build()
        assert np.array_equal(program.distances, reference_bfs_distances(graph, 0))

    def test_unreachable_stay_minus_one(self):
        # a graph with an isolated vertex region
        g = banded_graph(100, band=4, mean_degree=3, seed=5)
        program = BFSProgram(g, source=0)
        program.build()
        ref = reference_bfs_distances(g, 0)
        assert np.array_equal(program.distances, ref)
        if (ref == -1).any():
            assert (program.distances == -1).sum() == (ref == -1).sum()

    def test_different_source(self):
        g = citation_graph(200, mean_degree=6, seed=9)
        program = BFSProgram(g, source=57)
        program.build()
        assert np.array_equal(program.distances, reference_bfs_distances(g, 57))


class TestBFSTrace:
    @pytest.fixture(scope="class")
    def built(self):
        g = citation_graph(250, mean_degree=6, seed=4)
        program = BFSProgram(g)
        spec = program.build()
        return program, spec

    def test_trace_has_nested_launches(self, built):
        program, spec = built
        assert program.launch_count > 1

    def test_trace_simulates_under_every_scheduler(self, built):
        _, spec = built
        config = experiment_config(num_smx=4, max_threads_per_smx=256)
        totals = set()
        for scheduler in SCHEDULER_ORDER:
            stats = simulate(spec, scheduler, "dtbl", config)
            totals.add(stats.instructions)
        assert len(totals) == 1

    def test_children_read_parent_written_worklist(self, built):
        program, spec = built
        lo, hi = program.worklist.base, program.worklist.base + program.worklist.nbytes
        for body in walk_bodies(spec.bodies):
            for launch_spec in body.launches():
                parent_writes = {
                    a // 128
                    for op, lanes in body.accesses()
                    if op == Op.STORE
                    for a in lanes
                    if lo <= a < hi
                }
                child_reads = {
                    a // 128
                    for child in launch_spec.bodies
                    for op, lanes in child.accesses()
                    if op == Op.LOAD
                    for a in lanes
                    if lo <= a < hi
                }
                if child_reads:
                    assert child_reads & parent_writes
                return


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=10, max_value=150), seed=st.integers(0, 50), source=st.integers(0, 9))
def test_bfs_exact_on_random_graphs(n, seed, source):
    g = citation_graph(n, mean_degree=5, seed=seed)
    program = BFSProgram(g, source=source % n)
    program.build()
    assert np.array_equal(program.distances, reference_bfs_distances(g, source % n))


class TestSSSP:
    def test_distances_match_dijkstra(self):
        from repro.functional import SSSPProgram, reference_sssp_distances

        g = citation_graph(250, mean_degree=6, seed=8)
        program = SSSPProgram(g, source=0)
        program.build()
        ref = reference_sssp_distances(g, program.edge_weights.data, 0)
        assert np.array_equal(program.distances, ref)

    def test_weights_deterministic_by_seed(self):
        from repro.functional import SSSPProgram

        g = citation_graph(100, mean_degree=5, seed=1)
        a = SSSPProgram(g, weight_seed=3)
        b = SSSPProgram(g, weight_seed=3)
        assert np.array_equal(a.edge_weights.data, b.edge_weights.data)

    def test_trace_reads_weight_array(self):
        from repro.functional import SSSPProgram
        from repro.gpu.trace import walk_bodies

        g = citation_graph(120, mean_degree=5, seed=2)
        program = SSSPProgram(g)
        spec = program.build()
        lo = program.edge_weights.base
        hi = lo + program.edge_weights.nbytes
        touched = any(
            lo <= a < hi
            for body in walk_bodies(spec.bodies)
            for a in body.lanes
        )
        assert touched

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 30))
    def test_sssp_exact_on_random_graphs(self, seed):
        from repro.functional import SSSPProgram, reference_sssp_distances

        g = citation_graph(80, mean_degree=5, seed=seed)
        program = SSSPProgram(g, weight_seed=seed)
        program.build()
        ref = reference_sssp_distances(g, program.edge_weights.data, 0)
        assert np.array_equal(program.distances, ref)
