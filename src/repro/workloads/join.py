"""Relational Join (JOIN): partitioned hash join ([36]).

Both relations are range-partitioned by key. A parent TB builds the hash
bucket block for its R partition (reads R, writes buckets) and launches
one child TB per hash sub-range to probe the matching S tuples against
its bucket sub-block. Children therefore reuse parent-*written* data
(temporal/L2 reuse) but each child works on a disjoint bucket sub-range
and S chunk — the near-zero child-sibling sharing the paper reports for
``join``.

Inputs: ``uniform`` keys (balanced partitions) and ``gaussian`` keys
(skewed partitions: some parents launch many more children — the load
imbalance that separates SMX-Bind from Adaptive-Bind).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload, make_resources

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec

WARP = 32
R_PER_PART = 64  # R tuples per partition (= per parent TB)
S_PER_CHILD = 32  # S tuples probed per child TB


class JOIN(Workload):
    name = "join"
    inputs = ("uniform", "gaussian")

    SCALE_PARAMS = {
        "tiny": dict(n_r=2048, n_s=4096),
        "small": dict(n_r=24576, n_s=49152),
        "paper": dict(n_r=49152, n_s=98304),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        params = self.SCALE_PARAMS[self.scale]
        self.n_r = params["n_r"]
        self.n_s = params["n_s"]

    def _make_keys(self) -> tuple[ndarray, ndarray]:
        import numpy as np

        from repro.workloads.datagen import gaussian_keys, uniform_keys

        key_space = 1 << 20
        if self.input_name == "uniform":
            r = uniform_keys(self.n_r, key_space, seed=self.seed)
            s = uniform_keys(self.n_s, key_space, seed=self.seed + 1)
        else:
            r = gaussian_keys(self.n_r, key_space, seed=self.seed)
            s = gaussian_keys(self.n_s, key_space, seed=self.seed + 1)
        return np.sort(r), np.sort(s)

    def _child_spec(self, bucket_start: int, s_start: int, s_count: int, desc_idx: int) -> LaunchSpec:
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        warps = []
        for w_start in range(0, s_count, WARP):
            w_len = min(WARP, s_count - w_start)
            wt = WarpTrace()
            wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
            wt.load_range(self.s_keys, s_start + w_start, w_len)
            # probe the parent-built bucket sub-block (parent-written data)
            probe_len = min(w_len, R_PER_PART)
            probe_start = min(bucket_start + (w_start % R_PER_PART), self.buckets.length - probe_len)
            wt.load_range(self.buckets, max(0, probe_start), probe_len)
            wt.compute(8)
            wt.store_range(self.output, s_start + w_start, w_len)
            warps.append(wt)
        return LaunchSpec(
            bodies=[TBBody(warps=warps, arena=self.arena)], threads_per_tb=32, name="join-probe"
        )

    def build(self) -> KernelSpec:
        import numpy as np

        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody, WarpTrace

        r, s = self._make_keys()
        key_space = 1 << 20
        n_parts = max(1, self.n_r // R_PER_PART)
        bounds = np.linspace(0, key_space, n_parts + 1)
        r_starts = np.searchsorted(r, bounds[:-1])
        r_ends = np.searchsorted(r, bounds[1:])
        s_starts = np.searchsorted(s, bounds[:-1])
        s_ends = np.searchsorted(s, bounds[1:])

        self.r_keys = self.space.alloc("r_keys", max(1, self.n_r), elem_bytes=4)
        self.s_keys = self.space.alloc("s_keys", max(1, self.n_s), elem_bytes=4)
        self.buckets = self.space.alloc("buckets", max(1, self.n_r), elem_bytes=8)
        self.output = self.space.alloc("output", max(1, self.n_s), elem_bytes=8)
        total_children = sum(
            -(-max(0, int(s_ends[p] - s_starts[p])) // S_PER_CHILD) for p in range(n_parts)
        )
        self.desc = self.space.alloc("launch_desc", max(4, total_children * 4), elem_bytes=4)

        rng = np.random.default_rng(self.seed + 2)
        bodies = []
        desc_idx = 0
        for p in range(n_parts):
            r_start, r_count = int(r_starts[p]), int(r_ends[p] - r_starts[p])
            s_start, s_count = int(s_starts[p]), int(s_ends[p] - s_starts[p])
            warps = []
            for w in range(1):  # 32 threads, 2 tuples per thread
                wt = WarpTrace()
                chunk = range(r_start, r_start + r_count)
                if len(chunk):
                    wt.load(self.r_keys, chunk)
                    wt.compute(4)  # hashing
                    # scatter the partition's tuples into its bucket block
                    perm = rng.permutation(list(chunk))
                    wt.store(self.buckets, perm)
                wt.compute(4)
                warps.append(wt)
            # the first warp launches one probe child per S chunk; each
            # child owns a *disjoint* bucket sub-range (hash partitioning),
            # which is why join exhibits near-zero child-sibling sharing
            n_children = -(-s_count // S_PER_CHILD) if s_count else 0
            for i, c_start in enumerate(range(s_start, s_start + s_count, S_PER_CHILD)):
                c_len = min(S_PER_CHILD, s_start + s_count - c_start)
                bucket_sub = r_start + (i * r_count) // max(1, n_children)
                warps[0].store(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                warps[0].launch(self._child_spec(bucket_sub, c_start, c_len, desc_idx))
                desc_idx += 1
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return KernelSpec(name=self.full_name, bodies=bodies, resources=make_resources(32))
