"""LaPerm priority queues: entries, level ordering, on-chip capacity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import Entry, MultiLevelQueue
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq
from repro.gpu.trace import TBBody, compute


def make_tbs(n, priority=0):
    spec = KernelSpec(
        name="q",
        bodies=[TBBody(warps=[[compute(1)]]) for _ in range(n)],
        resources=ResourceReq(threads=32),
    )
    return Kernel(spec, priority=priority).tbs


class TestEntry:
    def test_requires_tbs(self):
        with pytest.raises(ValueError):
            Entry([], level=1)

    def test_cursor_walk(self):
        tbs = make_tbs(3)
        e = Entry(tbs, level=1)
        assert e.peek() is tbs[0]
        assert e.pop() is tbs[0]
        assert e.peek() is tbs[1]
        e.pop()
        e.pop()
        assert e.empty

    def test_overflow_penalty_paid_once(self):
        e = Entry(make_tbs(2), level=1)
        e.overflow = True
        assert e.dispatch_penalty(100) == 100
        assert e.dispatch_penalty(100) == 0

    def test_onchip_entry_has_no_penalty(self):
        e = Entry(make_tbs(1), level=1)
        assert e.dispatch_penalty(100) == 0


class TestMultiLevelQueue:
    def test_highest_level_first(self):
        q = MultiLevelQueue(max_level=3)
        low = Entry(make_tbs(1), level=1)
        high = Entry(make_tbs(1), level=3)
        q.push(low)
        q.push(high)
        assert q.head() is high

    def test_fcfs_within_level(self):
        q = MultiLevelQueue(max_level=2)
        first = Entry(make_tbs(1), level=2)
        second = Entry(make_tbs(1), level=2)
        q.push(first)
        q.push(second)
        assert q.head() is first

    def test_level_clamped_to_max(self):
        q = MultiLevelQueue(max_level=2)
        q.push(Entry(make_tbs(1), level=99))
        assert q.head() is not None

    def test_exhausted_entries_pruned(self):
        q = MultiLevelQueue(max_level=2)
        e = Entry(make_tbs(1), level=2)
        q.push(e)
        e.pop()
        assert q.head() is None
        assert q.entries == 0

    def test_capacity_marks_overflow(self):
        q = MultiLevelQueue(max_level=2, capacity=2)
        entries = [Entry(make_tbs(1), level=1) for _ in range(4)]
        for e in entries:
            q.push(e)
        assert [e.overflow for e in entries] == [False, False, True, True]
        assert q.overflow_events == 2
        assert q.onchip_entries == 2

    def test_retiring_onchip_entry_frees_slot(self):
        q = MultiLevelQueue(max_level=1, capacity=1)
        a = Entry(make_tbs(1), level=1)
        q.push(a)
        a.pop()
        assert q.head() is None  # prunes a, frees the on-chip slot
        b = Entry(make_tbs(1), level=1)
        q.push(b)
        assert not b.overflow

    def test_entry_high_water(self):
        q = MultiLevelQueue(max_level=1)
        for _ in range(5):
            q.push(Entry(make_tbs(1), level=1))
        assert q.entry_high_water == 5

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            MultiLevelQueue(max_level=-1)


class TestQueueEdgeCases:
    def test_same_priority_fifo_stable_across_drain(self):
        """FIFO within a level holds while entries drain mid-stream: an
        entry stays at the head until exhausted, and later arrivals at
        the same level never overtake earlier ones."""
        q = MultiLevelQueue(max_level=2)
        a = Entry(make_tbs(2), level=1)
        b = Entry(make_tbs(1), level=1)
        q.push(a)
        q.push(b)
        assert q.head() is a
        a.pop()
        assert q.head() is a  # partially drained: still at the head
        c = Entry(make_tbs(1), level=1)
        q.push(c)
        a.pop()
        assert q.head() is b  # a exhausted; b (older) beats c (newer)
        b.pop()
        assert q.head() is c

    def test_high_water_tracks_entries_not_onchip(self):
        """entry_high_water is the max concurrent entry count, monotone
        across pop/push interleavings (it never decays on drain)."""
        q = MultiLevelQueue(max_level=1, capacity=1)
        entries = [Entry(make_tbs(1), level=1) for _ in range(3)]
        for e in entries:
            q.push(e)
        assert q.entry_high_water == 3
        for e in entries:
            e.pop()
        assert q.head() is None
        assert q.entries == 0
        assert q.entry_high_water == 3  # high-water survives the drain
        q.push(Entry(make_tbs(1), level=0))
        q.push(Entry(make_tbs(1), level=0))
        assert q.entry_high_water == 3  # 2 concurrent < old peak

    def test_high_water_advances_past_old_peak(self):
        q = MultiLevelQueue(max_level=1)
        first = Entry(make_tbs(1), level=1)
        q.push(first)
        first.pop()
        assert q.head() is None
        for _ in range(4):
            q.push(Entry(make_tbs(1), level=1))
        assert q.entry_high_water == 4

    def test_on_overflow_callback_fires_per_overflowing_push(self):
        seen = []
        q = MultiLevelQueue(max_level=1, capacity=1)
        q.on_overflow = lambda entry, now: seen.append((entry, now))
        fits = Entry(make_tbs(1), level=1)
        spills = Entry(make_tbs(1), level=1)
        q.push(fits, now=10)
        assert seen == []  # within capacity: no event
        q.push(spills, now=20)
        assert seen == [(spills, 20)]
        assert q.overflow_events == 1
        q.push(Entry(make_tbs(1), level=0), now=30)
        assert len(seen) == 2 and seen[1][1] == 30

    def test_overflow_slot_not_freed_by_retiring_overflow_entry(self):
        """Draining an overflowed entry must not free an on-chip slot it
        never held."""
        q = MultiLevelQueue(max_level=1, capacity=1)
        onchip = Entry(make_tbs(1), level=1)
        spilled = Entry(make_tbs(1), level=1)
        q.push(onchip)
        q.push(spilled)
        assert spilled.overflow
        spilled.pop()
        onchip.pop()
        assert q.head() is None  # prunes both
        assert q.onchip_entries == 0  # exactly one slot was freed
        fresh = Entry(make_tbs(1), level=1)
        q.push(fresh)
        assert not fresh.overflow


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(min_value=0, max_value=4), st.integers(1, 3)),
            st.just(("pop",)),
        ),
        max_size=60,
    )
)
def test_pop_order_is_priority_then_fcfs(ops):
    """Dispatch order oracle: highest level first, FCFS within a level."""
    q = MultiLevelQueue(max_level=4)
    model: list[tuple[int, int, object]] = []  # (level, seq, tb)
    seq = 0
    for op in ops:
        if op[0] == "push":
            _, level, n = op
            tbs = make_tbs(n, priority=level)
            q.push(Entry(tbs, level=level))
            for tb in tbs:
                model.append((level, seq, tb))
            seq += 1
        else:
            entry = q.head()
            if entry is None:
                assert not model
                continue
            got = entry.pop()
            model.sort(key=lambda t: (-t[0], t[1]))
            expected = model.pop(0)[2]
            assert got is expected
