"""Warp access coalescing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.coalescer import coalesce, coalescing_degree


class TestCoalesce:
    def test_fully_coalesced_warp_is_one_transaction(self):
        addrs = [4 * lane for lane in range(32)]  # 32 x 4B = 128B
        assert coalesce(addrs) == [0]

    def test_aligned_8byte_elements_take_two_lines(self):
        addrs = [8 * lane for lane in range(32)]
        assert coalesce(addrs) == [0, 1]

    def test_fully_scattered_takes_32_lines(self):
        addrs = [lane * 4096 for lane in range(32)]
        assert len(coalesce(addrs)) == 32

    def test_duplicates_merge(self):
        assert coalesce([0, 4, 8, 0, 4]) == [0]

    def test_negative_addresses_are_inactive_lanes(self):
        assert coalesce([-1, 128, -1, 130]) == [1]

    def test_all_inactive_is_empty(self):
        assert coalesce([-1, -1]) == []

    def test_no_lanes_is_empty(self):
        assert coalesce([]) == []
        assert coalesce(()) == []

    def test_zero_lane_access_lowers_to_zero_line_span(self):
        from repro.gpu.trace import TBBody, load

        arena = TBBody(warps=[[load([])]]).compiled(128).arena
        assert list(arena.args) == [0]
        assert len(arena.lines) == 0

    def test_results_sorted(self):
        assert coalesce([512, 0, 256]) == [0, 2, 4]

    def test_custom_line_size(self):
        assert coalesce([0, 100], line_bytes=64) == [0, 1]


class TestCoalescingDegree:
    def test_perfect(self):
        addrs = [4 * lane for lane in range(32)]
        assert coalescing_degree(addrs) == 32.0

    def test_worst_case(self):
        addrs = [lane * 4096 for lane in range(32)]
        assert coalescing_degree(addrs) == 1.0

    def test_no_active_lanes(self):
        assert coalescing_degree([-1, -1]) == 0.0


@settings(max_examples=200, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=32))
def test_transaction_count_bounds(addrs):
    lines = coalesce(addrs)
    assert 1 <= len(lines) <= len(addrs)
    assert lines == sorted(set(lines))


@settings(max_examples=200, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=32))
def test_every_address_is_covered(addrs):
    lines = set(coalesce(addrs))
    for a in addrs:
        assert a // 128 in lines
