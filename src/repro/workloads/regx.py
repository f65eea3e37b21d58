"""Regular Expression Matching (REGX) over packet payloads ([32], [33]).

Parent TBs scan packet headers and run a cheap prefilter against the hot
head of the NFA transition table; suspicious packets get a child TB that
walks the full payload, driving the NFA — gathering transition-table rows
whose popularity is Zipf-skewed (hot rows are shared by every child and
the parents, the dominant sibling-sharing channel).

Inputs: ``darpa`` (long packets, low match rate, very hot table rows —
real traffic is highly repetitive) and ``random`` (short random strings,
higher match rate, flatter table usage).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload, make_resources

if TYPE_CHECKING:
    from numpy.random import Generator

    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import LaunchSpec

WARP = 32
NUM_STATES = 256
WORDS_PER_STATE = 8  # 32 B per transition row


class REGX(Workload):
    name = "regx"
    inputs = ("darpa", "random")

    SCALE_PARAMS = {
        "tiny": dict(packets=256),
        "small": dict(packets=12000),
        "paper": dict(packets=24000),
    }

    INPUT_PARAMS = {
        "darpa": dict(mean_length=384, match_rate=0.12, zipf_s=1.5),
        "random": dict(mean_length=160, match_rate=0.35, zipf_s=1.05),
    }

    def __init__(self, input_name=None, scale="small", seed=7):
        super().__init__(input_name, scale, seed)
        self.n_packets = self.SCALE_PARAMS[self.scale]["packets"]
        self.params = self.INPUT_PARAMS[self.input_name]

    def _table_rows(self, rng: Generator, count: int) -> list[int]:
        """NFA states visited: Zipf-popular rows (hot prefix of the table)."""
        ranks = rng.zipf(self.params["zipf_s"], size=count)
        return [int(min(r - 1, NUM_STATES - 1)) for r in ranks]

    def _child_spec(self, pkt: int, payload_start_w: int, payload_words: int, desc_idx: int, rng) -> LaunchSpec:
        from repro.gpu.trace import LaunchSpec, TBBody, WarpTrace

        bodies = []
        for tb_start in range(0, payload_words, 32):
            tb_len = min(32, payload_words - tb_start)
            warps = []
            for w_start in range(tb_start, tb_start + tb_len, WARP):
                w_len = min(WARP, tb_start + tb_len - w_start)
                wt = WarpTrace()
                wt.load(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                wt.load_range(self.payload, payload_start_w + w_start, w_len)
                # NFA transitions for this payload chunk
                rows = self._table_rows(rng, 8)
                wt.gather(self.table, [r * WORDS_PER_STATE for r in rows])
                wt.compute(10)
                warps.append(wt)
            # the last warp writes the match verdict
            warps[-1].store(self.matches, [pkt])
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return LaunchSpec(bodies=bodies, threads_per_tb=32, name="regx-scan")

    def build(self) -> KernelSpec:
        import numpy as np

        from repro.gpu.kernel import KernelSpec
        from repro.gpu.trace import TBBody, WarpTrace

        from repro.workloads.datagen import packet_stream

        stream = packet_stream(
            self.n_packets,
            mean_length=self.params["mean_length"],
            match_rate=self.params["match_rate"],
            seed=self.seed,
        )
        total_words = (stream.total_bytes + 3) // 4
        self.payload = self.space.alloc("payload", max(1, total_words), elem_bytes=4)
        self.headers = self.space.alloc("headers", self.n_packets * 4, elem_bytes=4)
        self.table = self.space.alloc("nfa_table", NUM_STATES * WORDS_PER_STATE, elem_bytes=4)
        self.matches = self.space.alloc("matches", self.n_packets, elem_bytes=4)
        n_susp = int(stream.suspicious.sum())
        self.desc = self.space.alloc("launch_desc", max(4, n_susp * 4), elem_bytes=4)

        rng = np.random.default_rng(self.seed + 1)
        bodies = []
        desc_idx = 0
        for tb_start in range(0, self.n_packets, 32):
            tb_pkts = range(tb_start, min(tb_start + 32, self.n_packets))
            warps = []
            for w_start in range(tb_pkts.start, tb_pkts.stop, WARP):
                w_pkts = range(w_start, min(w_start + WARP, tb_pkts.stop))
                wt = WarpTrace()
                # headers: 4 words per packet, strided across lanes
                wt.load(self.headers, [p * 4 for p in w_pkts])
                # prefilter: the hot head of the table
                wt.load_range(self.table, 0, WARP)
                wt.compute(6)
                for p in w_pkts:
                    if not stream.suspicious[p]:
                        continue
                    start_w = int(stream.offsets[p]) // 4
                    words = max(WARP, int(stream.lengths[p]) // 4)
                    words = min(words, self.payload.length - start_w)
                    # the parent sniffs the payload head before launching
                    wt.load_range(self.payload, start_w, min(words, WARP))
                    wt.store(self.desc, range(desc_idx * 4, desc_idx * 4 + 4))
                    wt.launch(self._child_spec(p, start_w, words, desc_idx, rng))
                    desc_idx += 1
                warps.append(wt)
            bodies.append(TBBody(warps=warps, arena=self.arena))
        return KernelSpec(name=self.full_name, bodies=bodies, resources=make_resources(32))
