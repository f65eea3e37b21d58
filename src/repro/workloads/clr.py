"""Greedy Graph Coloring (CLR) with dynamic conflict resolution ([31]).

The parent reads each vertex's current color; for high-degree vertices a
child TB group gathers all neighbour colors to find the minimum available
color and writes it back to the (single) vertex-color cell — so children
of one parent write into the color lines the parent read, a tight
parent-child reuse pattern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.graph_common import GraphDynWorkload

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.trace import WarpTrace


class CLR(GraphDynWorkload):
    name = "clr"

    def _alloc_arrays(self) -> None:
        self.colors = self.space.alloc("colors", self.graph.num_vertices, elem_bytes=4)

    def _load_vertex_state(self, wt: WarpTrace, vertices: list[int]) -> None:
        wt.load(self.colors, vertices)

    def _inline_step(self, wt: WarpTrace, neighbors, owners, k: int) -> None:
        wt.gather(self.colors, neighbors)
        if k == 0:
            # first conflict check rewrites the owners' colors
            wt.store(self.colors, owners)

    def _parent_inspect(self, wt: WarpTrace, v: int, start: int, deg: int) -> None:
        wt.load_range(self.col, start, deg)
        wt.compute(max(2, deg // 16))

    def _child_warp(self, wt: WarpTrace, v: int, neighbors: ndarray, chunk_start: int) -> None:
        wt.load_range(self.col, chunk_start, len(neighbors))
        wt.gather(self.colors, neighbors)
        wt.compute(8)  # min-available-color scan
        wt.store(self.colors, [v])
