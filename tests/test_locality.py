"""Inter-TB reuse analysis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.locality import inter_tb_reuse
from repro.gpu.trace import TBBody, load


def body_touching(*line_ids):
    return TBBody(warps=[[load([line_id * 128 for line_id in line_ids])]])


def bodies_from_streams(*streams):
    """One body per stream; each stream is a list of line ids, one
    reference per instruction (keeps per-access dedup out of the way)."""
    out = []
    for stream in streams:
        out.append(TBBody(warps=[[load([line * 128]) for line in stream]]))
    return out


class TestInterTBReuse:
    def test_all_cold(self):
        r = inter_tb_reuse([body_touching(1), body_touching(2)])
        assert r.cold == 2
        assert r.intra_tb == r.inter_tb == 0
        assert r.inter_fraction == 0.0

    def test_intra_tb(self):
        r = inter_tb_reuse(bodies_from_streams([1, 1, 1]))
        assert r.intra_tb == 2
        assert r.inter_tb == 0

    def test_inter_tb(self):
        r = inter_tb_reuse([body_touching(5), body_touching(5)])
        assert r.inter_tb == 1
        assert r.inter_fraction == 1.0

    def test_mixed(self):
        r = inter_tb_reuse(bodies_from_streams([1, 1], [1, 2], [2]))
        assert r.intra_tb == 1  # the 1,1 within TB0
        assert r.inter_tb == 2  # TB1's 1 and TB2's 2
        assert r.cold == 2


@settings(max_examples=50, deadline=None)
@given(
    streams=st.lists(
        st.lists(st.integers(0, 12), min_size=1, max_size=20), min_size=1, max_size=6
    )
)
def test_reuse_classes_partition_references(streams):
    bodies = bodies_from_streams(*streams)
    r = inter_tb_reuse(bodies)
    total_refs = sum(len(s) for s in streams)
    assert r.cold + r.intra_tb + r.inter_tb == total_refs
