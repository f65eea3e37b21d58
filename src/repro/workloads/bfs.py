"""Breadth-First Search (BFS) with dynamic vertex expansion ([29]).

Vertex state is a distance array. Low-degree vertices are expanded by the
owning thread (divergent gathers of ``dist[neighbor]``); high-degree
vertices launch a child TB group whose warps read the neighbour list with
coalesced accesses, gather neighbour distances, and write back updates
for the improved ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.graph_common import GraphDynWorkload

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.trace import WarpTrace


class BFS(GraphDynWorkload):
    name = "bfs"

    #: fraction of visited neighbours whose distance improves (stores)
    UPDATE_FRACTION = 0.4

    def _alloc_arrays(self) -> None:
        import numpy as np

        self.dist = self.space.alloc("dist", self.graph.num_vertices, elem_bytes=4)
        self._update_rng = np.random.default_rng(self.seed + 2)

    def _load_vertex_state(self, wt: WarpTrace, vertices: list[int]) -> None:
        wt.load(self.dist, vertices)

    def _updated(self, neighbors) -> list[int]:
        mask = self._update_rng.random(len(neighbors)) < self.UPDATE_FRACTION
        return [int(v) for v, m in zip(neighbors, mask) if m]

    def _inline_step(self, wt: WarpTrace, neighbors, owners, k: int) -> None:
        wt.gather(self.dist, neighbors)
        updated = self._updated(neighbors)
        if updated:
            wt.store(self.dist, updated)

    def _parent_inspect(self, wt: WarpTrace, v: int, start: int, deg: int) -> None:
        # the parent scans the neighbour list to pack the launch (frontier
        # filtering): this read is what the child re-reads coalesced
        wt.load_range(self.col, start, deg)
        wt.compute(max(2, deg // 16))

    def _child_warp(self, wt: WarpTrace, v: int, neighbors: ndarray, chunk_start: int) -> None:
        wt.load_range(self.col, chunk_start, len(neighbors))
        wt.gather(self.dist, neighbors)
        wt.compute(4)
        updated = self._updated(neighbors)
        if updated:
            wt.store(self.dist, updated)
