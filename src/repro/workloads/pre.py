"""Product Recommendation (PRE) over MovieLens-like ratings ([34], [35]).

A user-item rating matrix in CSR form drives a similarity computation:
parent TBs sweep users, reading each user's rating row; users with enough
ratings get a child TB that re-reads the row coalesced and gathers the
feature vectors of the rated items. Item popularity is Zipf-distributed
(as in MovieLens), so hot item vectors are shared across children of all
parents — sibling and cross-family sharing through the feature table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload, make_resources

if TYPE_CHECKING:
    from numpy import ndarray

    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec

WARP = 32


class PRE(Workload):
    name = "pre"
    inputs = ("movielens",)

    SCALE_PARAMS = {
        "tiny": dict(users=256, items=512, mean_ratings=12, active=24),
        "small": dict(users=14000, items=6000, mean_ratings=18, active=36),
        "paper": dict(users=26000, items=10000, mean_ratings=20, active=40),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        params = self.SCALE_PARAMS[self.scale]
        self.n_users = params["users"]
        self.n_items = params["items"]
        self.mean_ratings = params["mean_ratings"]
        self.active_threshold = params["active"]

    def _make_ratings(self) -> tuple[ndarray, ndarray]:
        import numpy as np

        from repro.workloads.datagen import zipf_choices

        rng = np.random.default_rng(self.seed)
        counts = 1 + rng.geometric(1.0 / self.mean_ratings, size=self.n_users)
        offsets = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        items = zipf_choices(int(offsets[-1]), self.n_items, s=1.15, seed=self.seed + 1)
        # each user's items sorted: CSR rows are ordered, like MovieLens dumps
        for u in range(self.n_users):
            items[offsets[u] : offsets[u + 1]].sort()
        return offsets, items

    def _child_spec(self, user: int, start: int, count: int, desc_idx: int, items: ndarray) -> LaunchSpec:
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        bodies = []
        for tb_start in range(0, count, 32):
            tb_len = min(32, count - tb_start)
            warps = []
            for w_start in range(tb_start, tb_start + tb_len, WARP):
                w_len = min(WARP, tb_start + tb_len - w_start)
                wt = WarpTrace()
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                wt.load_range(self.rated_items, start + w_start, w_len)
                chunk = items[start + w_start : start + w_start + w_len]
                # feature vectors of the rated items (64 B each, Zipf-hot)
                wt.gather(self.item_vecs, [int(i) for i in chunk])
                wt.compute(12)  # dot products
                wt.store_range(self.scores, start + w_start, w_len)
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(bodies=bodies, threads_per_tb=32, name="pre-sim")

    def build(self) -> KernelSpec:
        import numpy as np

        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody, WarpTrace

        offsets, items = self._make_ratings()
        n_ratings = len(items)
        self.offsets = self.space.alloc("rating_offsets", self.n_users + 1, elem_bytes=4)
        self.rated_items = self.space.alloc("rated_items", max(1, n_ratings), elem_bytes=4)
        self.item_vecs = self.space.alloc("item_vecs", self.n_items, elem_bytes=64)
        self.scores = self.space.alloc("scores", max(1, n_ratings), elem_bytes=4)
        counts = np.diff(offsets)
        n_active = int(np.sum(counts >= self.active_threshold))
        self.desc = self.space.alloc("launch_desc", max(4, n_active * 4), elem_bytes=4)

        bodies = []
        desc_idx = 0
        for tb_start in range(0, self.n_users, 32):
            tb_users = range(tb_start, min(tb_start + 32, self.n_users))
            warps = []
            for w_start in range(tb_users.start, tb_users.stop, WARP):
                w_users = range(w_start, min(w_start + WARP, tb_users.stop))
                wt = WarpTrace()
                wt.load(self.offsets, list(w_users))
                wt.compute(2)
                # profile pass, lockstep across lanes: lane i walks user
                # i's rating row, one item index k per step
                lanes = [(int(offsets[u]), int(counts[u])) for u in w_users]
                max_count = max((c for _, c in lanes), default=0)
                for k in range(max_count):
                    idxs = [s + k for s, c in lanes if c > k]
                    wt.load(self.rated_items, idxs)
                    if k % 8 == 7:
                        wt.compute(4)
                wt.compute(4)
                active = [
                    (u, int(offsets[u]), int(counts[u]))
                    for u in w_users
                    if int(counts[u]) >= self.active_threshold
                ]
                # launch pass: active users' children go last, so their row
                # lines are still warm when the children start
                for u, start, count in active:
                    wt.load_range(self.rated_items, start, min(count, 32))
                    wt.store(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                    wt.launch(self._child_spec(u, start, count, desc_idx, items))
                    desc_idx += 1
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return KernelSpec(name=self.full_name, bodies=bodies, resources=make_resources(32))
