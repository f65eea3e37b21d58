"""Adaptive Mesh Refinement (AMR) on a combustion-simulation-like grid.

A coarse 2D grid is swept by parent TBs (one per 8x32-cell block). Blocks
whose error metric exceeds a threshold are refined: the parent launches a
child TB group, each child interpolating half of the parent block into a
freshly allocated fine grid at 2x resolution. Where the interpolated
solution is still under-resolved (a deterministic fraction of halves, as
flame fronts are in combustion AMR), the *child* launches a second-level
refinement — the nested, time-varying parallelism of real AMR codes.

Locality profile (matches Fig 2's narrative): children re-read the parent
block (high parent-child sharing) and grandchildren re-read the fine rows
their parent child just wrote, but every refinement writes a private
region and reads a disjoint part of its parent's data, so child-sibling
sharing is nearly zero — the paper calls out ``amr`` (with ``join``) as
the benchmarks where children work on their own memory regions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload, make_resources

if TYPE_CHECKING:
    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec

BLOCK_ROWS = 8
BLOCK_COLS = 32
ROWS_PER_WARP = 4  # 2 warps per 64-thread parent TB
CHILD_ROWS = BLOCK_ROWS // 2  # each of the 2 children reads half the block
FINE_PER_CHILD = CHILD_ROWS * 2 * BLOCK_COLS * 2  # 2x resolution
FINE2_PER_DEEP = FINE_PER_CHILD * 4  # 4x resolution over the same area


class AMR(Workload):
    name = "amr"
    inputs = ("combustion",)

    SCALE_PARAMS = {
        "tiny": dict(width=128, refine_fraction=0.3, deep_fraction=0.3),
        "small": dict(width=512, refine_fraction=0.22, deep_fraction=0.25),
        "paper": dict(width=768, refine_fraction=0.22, deep_fraction=0.25),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        params = self.SCALE_PARAMS[self.scale]
        self.width = params["width"]
        self.refine_fraction = params["refine_fraction"]
        self.deep_fraction = params["deep_fraction"]

    def _cell(self, row: int, col: int) -> int:
        return row * self.width + col

    # ----- second-level refinement -------------------------------------------
    def _deep_spec(self, fine_base: int, deep_slot: int, desc_idx: int) -> LaunchSpec:
        """Refine one child's fine region (16x64) again at 2x: the
        grandchild re-reads the fine rows its launcher just wrote."""
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        fine2_base = deep_slot * FINE2_PER_DEEP
        bodies = []
        for tb in range(2):  # two 64-thread TBs over the 8 fine rows
            warps = []
            for w in range(2):
                wt = WarpTrace()
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                for i in range(2):  # 2 fine rows per warp
                    fine_row = (tb * 2 + w) * 2 + i
                    wt.load_range(self.fine, fine_base + fine_row * BLOCK_COLS * 2, BLOCK_COLS * 2)
                    wt.compute(6)
                    for sub in range(2):
                        start = fine2_base + (fine_row * 2 + sub) * BLOCK_COLS * 4
                        wt.store_range(self.fine2, start, BLOCK_COLS * 4)
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(bodies=bodies, threads_per_tb=64, name="amr-refine2")

    # ----- first-level refinement -----------------------------------------------
    def _child_spec(self, block_row: int, block_col: int, fine_slot: int, desc_idx: int) -> LaunchSpec:
        """Two children per refined block: top and bottom half."""
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        bodies = []
        for half in range(2):
            warps = []
            r0 = block_row + half * CHILD_ROWS
            fine_base = (fine_slot * 2 + half) * FINE_PER_CHILD
            for w in range(2):  # 64 threads, 2 warps
                wt = WarpTrace()
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                # each warp interpolates two coarse rows into four fine rows
                for i in range(2):
                    coarse_row = r0 + w * 2 + i
                    wt.load(
                        self.cells,
                        range(self._cell(coarse_row, block_col), self._cell(coarse_row, block_col) + BLOCK_COLS),
                    )
                    wt.compute(6)
                    for fine_row in range(2):
                        start = fine_base + ((w * 2 + i) * 2 + fine_row) * BLOCK_COLS * 2
                        wt.store_range(self.fine, start, BLOCK_COLS * 2)
                # the last warp of an under-resolved half refines again
                if w == 1 and self._deep_flags[fine_slot * 2 + half]:
                    deep_idx = self._next_desc
                    self._next_desc += 1
                    deep_slot = self._next_deep
                    self._next_deep += 1
                    wt.store(self.desc, range(deep_idx * 4, deep_idx * 4 + 4))
                    wt.compute(4)
                    wt.launch(self._deep_spec(fine_base, deep_slot, deep_idx))
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(bodies=bodies, threads_per_tb=64, name="amr-refine")

    def build(self) -> KernelSpec:
        import numpy as np

        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody, WarpTrace

        width = self.width
        n_cells = width * width
        self.cells = self.space.alloc("cells", n_cells, elem_bytes=4)
        rng = np.random.default_rng(self.seed)
        blocks = [
            (br, bc)
            for br in range(0, width, BLOCK_ROWS)
            for bc in range(0, width, BLOCK_COLS)
        ]
        refined = rng.random(len(blocks)) < self.refine_fraction
        n_refined = int(refined.sum())
        self._deep_flags = rng.random(n_refined * 2) < self.deep_fraction
        n_deep = int(self._deep_flags.sum())
        fine_cells = max(1, n_refined * 2 * FINE_PER_CHILD)
        self.fine = self.space.alloc("fine_cells", fine_cells, elem_bytes=4)
        self.fine2 = self.space.alloc("fine2_cells", max(1, n_deep * FINE2_PER_DEEP), elem_bytes=4)
        self.desc = self.space.alloc("launch_desc", max(4, (n_refined + n_deep) * 4), elem_bytes=4)
        self._next_desc = 0
        self._next_deep = 0

        bodies = []
        fine_slot = 0
        for (br, bc), do_refine in zip(blocks, refined):
            warps = []
            launch_desc = self._next_desc if do_refine else None
            if do_refine:
                self._next_desc += 1
            for w in range(2):  # 64 threads, 2 warps x 4 rows x 32 cols
                wt = WarpTrace()
                for r in range(ROWS_PER_WARP):
                    row = br + w * ROWS_PER_WARP + r
                    wt.load(self.cells, range(self._cell(row, bc), self._cell(row, bc) + BLOCK_COLS))
                wt.compute(10)  # error metric reduction
                if do_refine and w == 0:
                    wt.store(self.desc, range(launch_desc * 4, launch_desc * 4 + 4))
                    wt.launch(self._child_spec(br, bc, fine_slot, launch_desc))
                warps.append(wt)
            if do_refine:
                fine_slot += 1
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return KernelSpec(name=self.full_name, bodies=bodies, resources=make_resources(64))
