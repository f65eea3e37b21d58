"""Barnes-Hut Tree (BHT) force evaluation over clustered random points ([28]).

Points are drawn from a Gaussian-mixture (clustered, as astrophysical data
is), sorted by their depth-D quadtree cell. Parent TBs sweep the sorted
points, walking the (hot) top of the complete quadtree; dense leaf cells
trigger a child TB group that computes the cell-local interactions:
re-reading the cell's points (shared with the parent), re-walking the top
tree levels (shared with every other child — strong sibling sharing), and
writing private force outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload, make_resources

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec

WARP = 32
DEPTH = 5  # complete quadtree depth: 4^5 = 1024 leaf cells
NUM_CELLS = 4**DEPTH
NUM_NODES = (4 ** (DEPTH + 1) - 1) // 3


def level_offset(level: int) -> int:
    """Index of the first node of ``level`` in the BFS node array."""
    return (4**level - 1) // 3


def path_nodes(cell: int) -> list[int]:
    """Node indices from the root down to leaf ``cell``."""
    return [level_offset(lvl) + (cell >> (2 * (DEPTH - lvl))) for lvl in range(DEPTH + 1)]


class BHT(Workload):
    name = "bht"
    inputs = ("random-points",)

    SCALE_PARAMS = {
        "tiny": dict(n_points=2048, clusters=8, dense=24),
        "small": dict(n_points=40000, clusters=24, dense=96),
        "paper": dict(n_points=90000, clusters=32, dense=128),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        params = self.SCALE_PARAMS[self.scale]
        self.n_points = params["n_points"]
        self.clusters = params["clusters"]
        self.dense_threshold = params["dense"]

    # ----- data ---------------------------------------------------------------
    def _make_points(self) -> ndarray:
        """Cell id of every point, sorted (points are stored cell-sorted)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        centers = rng.random((self.clusters, 2))
        which = rng.integers(0, self.clusters, size=self.n_points)
        xy = centers[which] + rng.normal(0, 0.04, size=(self.n_points, 2))
        xy = np.clip(xy, 0.0, 0.999999)
        side = 1 << DEPTH
        cx = (xy[:, 0] * side).astype(np.int64)
        cy = (xy[:, 1] * side).astype(np.int64)
        # interleave bits (Morton order) so nearby cells share subtrees
        cell = np.zeros(self.n_points, dtype=np.int64)
        for bit in range(DEPTH):
            cell |= ((cx >> bit) & 1) << (2 * bit)
            cell |= ((cy >> bit) & 1) << (2 * bit + 1)
        return np.sort(cell)

    def _child_spec(self, cell: int, start: int, count: int, desc_idx: int) -> LaunchSpec:
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        path = path_nodes(cell)
        bodies = []
        for tb_start in range(start, start + count, 64):
            tb_len = min(64, start + count - tb_start)
            warps = []
            for w_start in range(tb_start, tb_start + tb_len, WARP):
                w_len = min(WARP, tb_start + tb_len - w_start)
                wt = WarpTrace()
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                # re-walk root -> cell (hot top levels shared by all TBs)
                wt.gather(self.nodes, path)
                wt.load_range(self.points, w_start, w_len)
                # cell-local pairwise interactions
                wt.compute(max(8, min(count, 96)))
                wt.store_range(self.forces, w_start, w_len)
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(bodies=bodies, threads_per_tb=64, name="bht-cell")

    def build(self) -> KernelSpec:
        import numpy as np

        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody, WarpTrace

        cells = self._make_points()
        n = self.n_points
        self.points = self.space.alloc("points", n, elem_bytes=8)  # (x, y)
        self.forces = self.space.alloc("forces", n, elem_bytes=8)
        self.nodes = self.space.alloc("nodes", NUM_NODES, elem_bytes=32)
        # leaf-cell point ranges in the sorted point array
        starts = np.searchsorted(cells, np.arange(NUM_CELLS))
        ends = np.searchsorted(cells, np.arange(1, NUM_CELLS + 1))
        counts = ends - starts
        dense_cells = [c for c in range(NUM_CELLS) if counts[c] >= self.dense_threshold]
        self.desc = self.space.alloc("launch_desc", max(4, len(dense_cells) * 4), elem_bytes=4)
        launch_of_point = {int(starts[c]): (c, i) for i, c in enumerate(dense_cells)}

        bodies = []
        for tb_start in range(0, n, 64):
            tb_pts = range(tb_start, min(tb_start + 64, n))
            warps = []
            for w_start in range(tb_pts.start, tb_pts.stop, WARP):
                w_len = min(WARP, tb_pts.stop - w_start)
                wt = WarpTrace()
                wt.load_range(self.points, w_start, w_len)
                # walk the tree for each distinct cell in the warp
                warp_cells = sorted(set(int(c) for c in cells[w_start : w_start + w_len]))
                for cell in warp_cells:
                    wt.gather(self.nodes, path_nodes(cell))
                wt.compute(12)
                # the parent thread owning a dense cell's first point
                # inspects and launches the cell's child group
                for p in range(w_start, w_start + w_len):
                    hit = launch_of_point.get(p)
                    if hit is None:
                        continue
                    cell, desc_idx = hit
                    count = int(counts[cell])
                    wt.load_range(self.points, p, min(count, 64))
                    wt.store(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                    wt.compute(4)
                    wt.launch(self._child_spec(cell, p, count, desc_idx))
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return KernelSpec(name=self.full_name, bodies=bodies, resources=make_resources(64))
