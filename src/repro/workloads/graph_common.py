"""Shared skeleton for the graph benchmarks (BFS, SSSP, CLR).

The CDP/DTBL graph codes in the paper all follow the same shape (cf. [15],
[16]): a parent kernel iterates over vertices, expanding low-degree
vertices inline (a divergent per-thread loop) and launching a child TB
group for every high-degree vertex so its neighbour list is processed by
coalesced warp-wide accesses. The parent inspects the neighbour list (and
writes a small launch descriptor) before launching — the source of the
parent-child footprint sharing Fig 2 measures; siblings share CSR lines
and vertex-state lines to a degree set by the input graph's clustering.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import TYPE_CHECKING

from repro.workloads.base import Array, Workload, make_resources

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec, WarpTrace
    from repro.workloads.datagen import CSRGraph

PARENT_TB_THREADS = 32  # 1 warp, one vertex per thread
CHILD_TB_THREADS = 32  # 1 warp, one neighbour per thread
WARP = 32


class GraphDynWorkload(Workload):
    """Template for dynamic-parallelism graph algorithms over CSR inputs."""

    inputs = ("citation", "graph500", "cage15")

    SCALE_PARAMS = {
        "tiny": dict(n=512, mean_degree=8, threshold=12),
        "small": dict(n=16000, mean_degree=12, threshold=16),
        "paper": dict(n=32000, mean_degree=14, threshold=16),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        params = self.SCALE_PARAMS[self.scale]
        self.n = params["n"]
        self.mean_degree = params["mean_degree"]
        self.threshold = params["threshold"]
        #: the input graph, held only while :meth:`build` runs
        self.graph: CSRGraph | None = None
        self.row: Array | None = None
        self.col: Array | None = None

    # ----- input construction ---------------------------------------------
    def _make_graph(self) -> CSRGraph:
        from repro.workloads.datagen import banded_graph, citation_graph, rmat_graph

        if self.input_name == "citation":
            return citation_graph(self.n, self.mean_degree, locality=0.85, seed=self.seed)
        if self.input_name == "graph500":
            n_log2 = max(6, int(math.log2(self.n)))
            return rmat_graph(n_log2, edge_factor=self.mean_degree, seed=self.seed)
        return banded_graph(self.n, band=48, mean_degree=self.mean_degree, seed=self.seed)

    # ----- benchmark-specific hooks -----------------------------------------
    @abstractmethod
    def _alloc_arrays(self) -> None:
        """Allocate vertex/edge state arrays (dist, colors, weights, …)."""

    @abstractmethod
    def _load_vertex_state(self, wt: WarpTrace, vertices: list[int]) -> None:
        """Parent warp loads the state of its vertices."""

    @abstractmethod
    def _inline_step(self, wt: WarpTrace, neighbors: list[int], owners: list[int], k: int) -> None:
        """One lockstep iteration of the divergent inline-expansion loop:
        ``neighbors[i]`` is the k-th neighbour of small vertex ``owners[i]``."""

    @abstractmethod
    def _parent_inspect(self, wt: WarpTrace, v: int, start: int, deg: int) -> None:
        """Parent-side inspection of a big vertex before launching."""

    @abstractmethod
    def _child_warp(self, wt: WarpTrace, v: int, neighbors: ndarray, chunk_start: int) -> None:
        """Body of one child warp handling ≤32 neighbours of vertex ``v``."""

    # ----- trace generation -----------------------------------------------------
    #: nested-launch generation depth cap (the runtime priority still
    #: clamps at GPUConfig.max_priority_levels; this only bounds recursion)
    MAX_NEST_DEPTH = 3

    def _claim(self, v: int) -> bool:
        """Claim the expansion of vertex ``v`` (each vertex expands once,
        mirroring the visited-flag test the CUDA codes perform)."""
        if v in self._expanded:
            return False
        self._expanded.add(v)
        return True

    def _launch_expansion(self, wt: WarpTrace, v: int, depth: int) -> None:
        """Inspect + descriptor store + launch for the expansion of ``v``."""
        g = self.graph
        start, deg = g.offsets[v], g.degree(v)
        self._parent_inspect(wt, v, start, deg)
        desc_idx = self._next_desc
        self._next_desc += 1
        wt.store(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
        wt.compute(6)
        wt.launch(self._child_spec(v, desc_idx, depth))

    def _child_spec(self, v: int, desc_idx: int, depth: int = 1) -> LaunchSpec:
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        g = self.graph
        start = g.offsets[v]
        deg = g.degree(v)
        neighbors = g.neighbors(v)
        bodies: list[TBBody] = []
        for tb_start in range(0, deg, CHILD_TB_THREADS):
            tb_len = min(CHILD_TB_THREADS, deg - tb_start)
            warps = []
            for w_start in range(tb_start, tb_start + tb_len, WARP):
                w_len = min(WARP, tb_start + tb_len - w_start)
                wt = WarpTrace()
                # every child warp reads the launch descriptor the parent
                # wrote (parent-generated data: the temporal-reuse target)
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                chunk = neighbors[w_start : w_start + w_len]
                self._child_warp(wt, v, chunk, start + w_start)
                # nested dynamic parallelism: unvisited high-degree
                # neighbours found while expanding are launched in turn.
                # At most two claims per warp — the rest stay with their
                # own parent TBs, keeping launch families bounded
                if depth < self.MAX_NEST_DEPTH:
                    claims = 0
                    for u in chunk:
                        u = int(u)
                        if g.degree(u) >= self.threshold and self._claim(u):
                            self._launch_expansion(wt, u, depth + 1)
                            claims += 1
                            if claims >= 2:
                                break
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(
            bodies=bodies,
            threads_per_tb=CHILD_TB_THREADS,
            regs_per_thread=24,
            name=f"{self.name}-child",
        )

    def _parent_warp(self, vertices: list[int]) -> WarpTrace:
        from repro.gpu.trace import WarpTrace

        g = self.graph
        wt = WarpTrace()
        # coalesced metadata loads: row offsets (v and v+1 share lines)
        wt.load(self.row, vertices)
        self._load_vertex_state(wt, vertices)
        wt.compute(4)

        small = [v for v in vertices if 0 < g.degree(v) < self.threshold]
        big = [v for v in vertices if g.degree(v) >= self.threshold]

        # divergent inline expansion, lockstep over neighbour index k
        if small:
            max_deg = max(g.degree(v) for v in small)
            for k in range(max_deg):
                owners = [v for v in small if g.degree(v) > k]
                col_idxs = [g.offsets[v] + k for v in owners]
                wt.load(self.col, col_idxs)
                neighbors = [int(g.col_indices[i]) for i in col_idxs]
                self._inline_step(wt, neighbors, owners, k)
                wt.compute(2)

        # child launches last: the inspection reads happen right before the
        # launch, so the shared lines are freshest when the children — who
        # arrive roughly as the parent retires — get dispatched. Vertices
        # already claimed by a nested expansion are skipped (visited test).
        for v in big:
            if self._claim(v):
                self._launch_expansion(wt, v, depth=1)
        return wt

    def build(self) -> KernelSpec:
        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody

        self.graph = self._make_graph()
        g = self.graph
        n = g.num_vertices
        self.row = self.space.alloc("row_offsets", n + 1, elem_bytes=4)
        self.col = self.space.alloc("col_indices", max(1, g.num_edges), elem_bytes=4)
        self._alloc_arrays()
        num_big = sum(1 for d in g.degrees if d >= self.threshold)
        self.desc = self.space.alloc("launch_desc", max(4, num_big * 4), elem_bytes=4)
        self._next_desc = 0
        self._expanded: set[int] = set()

        bodies: list[TBBody] = []
        for tb_start in range(0, n, PARENT_TB_THREADS):
            tb_verts = list(range(tb_start, min(tb_start + PARENT_TB_THREADS, n)))
            warps = []
            for w_start in range(0, len(tb_verts), WARP):
                warps.append(self._parent_warp(tb_verts[w_start : w_start + WARP]))
            bodies.append(TBBody(warps=warps, arena=self.arena))
        # nothing reads the graph (or the int lists it caches) once the
        # trace is built, and a replay holds its workload to the end;
        # ``_expanded``, ``space`` and the array descriptors stay
        self.graph = None
        return KernelSpec(
            name=self.full_name,
            bodies=bodies,
            resources=make_resources(PARENT_TB_THREADS),
        )
