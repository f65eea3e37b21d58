"""Single-Source Shortest Path (SSSP) with dynamic edge relaxation ([37]).

Like BFS but every edge carries a weight: relaxations read both the
neighbour id and the edge weight, so the edge-parallel children touch two
parallel edge arrays (doubling the coalesced shared footprint) and the
scattered distance array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.graph_common import GraphDynWorkload

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.trace import WarpTrace


class SSSP(GraphDynWorkload):
    name = "sssp"

    UPDATE_FRACTION = 0.3

    def _alloc_arrays(self) -> None:
        import numpy as np

        n, m = self.graph.num_vertices, max(1, self.graph.num_edges)
        self.dist = self.space.alloc("dist", n, elem_bytes=4)
        self.weights = self.space.alloc("weights", m, elem_bytes=4)
        self._update_rng = np.random.default_rng(self.seed + 2)

    def _load_vertex_state(self, wt: WarpTrace, vertices: list[int]) -> None:
        wt.load(self.dist, vertices)

    def _updated(self, neighbors) -> list[int]:
        mask = self._update_rng.random(len(neighbors)) < self.UPDATE_FRACTION
        return [int(v) for v, m in zip(neighbors, mask) if m]

    def _inline_step(self, wt: WarpTrace, neighbors, owners, k: int) -> None:
        # relaxation: weight of the k-th edge + neighbour distance
        edge_idxs = [self.graph.offsets[v] + k for v in owners]
        wt.load(self.weights, edge_idxs)
        wt.gather(self.dist, neighbors)
        updated = self._updated(neighbors)
        if updated:
            wt.store(self.dist, updated)

    def _parent_inspect(self, wt: WarpTrace, v: int, start: int, deg: int) -> None:
        # the parent prunes edges that cannot improve any distance, reading
        # both edge arrays the child will re-read coalesced
        wt.load_range(self.col, start, deg)
        wt.load_range(self.weights, start, deg)
        wt.compute(max(2, deg // 12))

    def _child_warp(self, wt: WarpTrace, v: int, neighbors: ndarray, chunk_start: int) -> None:
        wt.load_range(self.col, chunk_start, len(neighbors))
        wt.load_range(self.weights, chunk_start, len(neighbors))
        wt.gather(self.dist, neighbors)
        wt.compute(6)
        updated = self._updated(neighbors)
        if updated:
            wt.store(self.dist, updated)
