"""Graph-workload skeleton: expansion discipline, nesting, trace shape."""

import pytest

from repro.gpu.trace import Op, walk_bodies
from repro.workloads.bfs import BFS
from repro.workloads.graph_common import CHILD_TB_THREADS, GraphDynWorkload
from tests.conftest import access_lines


@pytest.fixture(scope="module")
def bfs():
    w = BFS("cage15", scale="tiny")
    w.kernel()
    return w


def launch_depths(bodies, depth=1):
    for body in bodies:
        for spec in body.launches():
            yield depth
            yield from launch_depths(spec.bodies, depth + 1)


class TestExpansionDiscipline:
    def test_every_claimed_vertex_has_one_descriptor(self, bfs):
        assert bfs._next_desc == len(bfs._expanded)

    def test_only_big_vertices_expanded(self, bfs):
        g = bfs.graph
        for v in bfs._expanded:
            assert g.degree(v) >= bfs.threshold

    def test_all_big_vertices_reachable_or_owned(self, bfs):
        """Every high-degree vertex is expanded exactly once: by its own
        parent TB or by a nested claim (generation-depth cap aside)."""
        g = bfs.graph
        big = {v for v in range(g.num_vertices) if g.degree(v) >= bfs.threshold}
        # the claim set can only miss vertices beyond the nesting cap
        assert bfs._expanded <= big
        assert len(bfs._expanded) >= len(big) * 0.9

    def test_nesting_depth_bounded(self, bfs):
        depths = list(launch_depths(bfs.kernel().bodies))
        assert depths
        assert max(depths) <= GraphDynWorkload.MAX_NEST_DEPTH

    def test_child_spec_shape(self, bfs):
        g = bfs.graph
        for body in walk_bodies(bfs.kernel().bodies):
            for spec in body.launches():
                assert spec.threads_per_tb == CHILD_TB_THREADS
                total_neighbor_capacity = len(spec.bodies) * CHILD_TB_THREADS
                # group sized to the vertex degree, one TB per 32 neighbours
                assert total_neighbor_capacity >= 1


def array_lines(array) -> range:
    """The 128-byte lines an array covers (``AddressSpace.alloc`` starts
    every array on a line of its own)."""
    return range(array.base // 128, -(-array.end // 128))


class TestTraceShape:
    def test_parent_reads_row_offsets_first(self, bfs):
        first_parent = bfs.kernel().bodies[0]
        assert first_parent.arena.ops[first_parent.warp_bounds[0]] == Op.LOAD
        _, lines = next(access_lines(first_parent))
        assert lines and all(line in array_lines(bfs.row) for line in lines)

    def test_children_read_descriptor_then_columns(self, bfs):
        for body in walk_bodies(bfs.kernel().bodies):
            for spec in body.launches():
                child = spec.bodies[0]
                assert child.arena.ops[child.warp_bounds[0]] == Op.LOAD
                _, lines = next(access_lines(child))
                assert lines and all(line in array_lines(bfs.desc) for line in lines)

    def test_parent_child_share_column_lines(self, bfs):
        """The mechanism behind Fig 2: the inspection read covers the
        columns the child re-reads."""
        cols = array_lines(bfs.col)
        for body in bfs.kernel().bodies:
            for spec in body.launches():
                parent_cols = {
                    line
                    for op, lines in access_lines(body)
                    if op == Op.LOAD
                    for line in lines
                    if line in cols
                }
                child_cols = {
                    line
                    for b in spec.bodies
                    for op, lines in access_lines(b)
                    if op == Op.LOAD
                    for line in lines
                    if line in cols
                }
                if child_cols:
                    overlap = len(parent_cols & child_cols) / len(child_cols)
                    assert overlap > 0.5
                break  # one family per parent TB is enough
            else:
                continue
            break


class TestInputsVary:
    @pytest.mark.parametrize("inp", ["citation", "graph500", "cage15"])
    def test_all_inputs_build_and_launch(self, inp):
        w = BFS(inp, scale="tiny")
        bodies = walk_bodies(w.kernel().bodies)
        assert sum(len(b.launches()) for b in bodies) > 0
