"""Property-based invariants of the memory hierarchy timing model."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.config import CacheConfig, GPUConfig
from repro.memory.hierarchy import MemoryHierarchy


def make_mem(merging=True, lines_per_cycle=2.0):
    return MemoryHierarchy(
        GPUConfig(
            num_smx=2,
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
            l1_hit_latency=10,
            l2_hit_latency=50,
            dram_latency=200,
            dram_lines_per_cycle=lines_per_cycle,
            mshr_merging=merging,
        )
    )


warp_accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # smx
        st.lists(st.integers(min_value=0, max_value=64 * 128 - 1), min_size=1, max_size=32),
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(accesses=warp_accesses, merging=st.booleans())
def test_completion_never_before_issue(accesses, merging):
    mem = make_mem(merging=merging)
    now = 0
    for smx, addrs, is_write in accesses:
        result = mem.access_warp(smx, addrs, now, is_write=is_write)
        assert result.complete_at >= now
        now += 7


@settings(max_examples=100, deadline=None)
@given(accesses=warp_accesses)
def test_outcome_classes_partition_transactions(accesses):
    mem = make_mem()
    now = 0
    for smx, addrs, is_write in accesses:
        r = mem.access_warp(smx, addrs, now, is_write=is_write)
        # write path can classify a line as both an L1 write-hit and an
        # L2 event, so only read transactions partition exactly
        if not is_write:
            assert r.l1_hits + r.l2_hits + r.dram_accesses + r.mshr_merges == r.transactions
        now += 3


@settings(max_examples=100, deadline=None)
@given(accesses=warp_accesses)
def test_merging_never_increases_dram_traffic(accesses):
    with_m, without_m = make_mem(merging=True), make_mem(merging=False)
    now = 0
    for smx, addrs, is_write in accesses:
        with_m.access_warp(smx, addrs, now, is_write=is_write)
        without_m.access_warp(smx, addrs, now, is_write=is_write)
        now += 3
    assert with_m.dram.stats.transactions <= without_m.dram.stats.transactions


@settings(max_examples=60, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=32),
    bw=st.sampled_from([0.5, 1.0, 4.0]),
)
def test_lower_bandwidth_never_faster(addrs, bw):
    fast = make_mem(lines_per_cycle=100.0)
    slow = make_mem(lines_per_cycle=bw)
    # hammer both with the same two scattered warp accesses back to back
    a = fast.access_warp(0, addrs, 0)
    b = slow.access_warp(0, addrs, 0)
    assert b.complete_at >= a.complete_at


@settings(max_examples=100, deadline=None)
@given(accesses=warp_accesses)
def test_hit_rates_bounded(accesses):
    mem = make_mem()
    now = 0
    for smx, addrs, is_write in accesses:
        mem.access_warp(smx, addrs, now, is_write=is_write)
        now += 5
    assert 0.0 <= mem.l1_hit_rate <= 1.0
    assert 0.0 <= mem.l2_hit_rate <= 1.0


# ---------------------------------------------------------------------------
# the per-SMX fast accessor against the readable reference walk
# ---------------------------------------------------------------------------


def _random_spans(rng: random.Random, num_sets: int):
    """Typed line spans: wide distinct-set runs, collisions, and writes."""
    spans = []
    for _ in range(200):
        kind = rng.randrange(4)
        if kind == 0:
            # contiguous run of <= num_sets lines: distinct L1 sets
            base = rng.randrange(0, 1 << 16)
            width = rng.randint(num_sets // 2, num_sets)
            lines = list(range(base, base + width))
            is_write = False
        elif kind == 1:
            # deliberate same-set collisions: forces LRU evictions
            base = rng.randrange(0, 1 << 16)
            lines = [base + i * num_sets for i in range(rng.randint(2, 8))]
            lines += [base + i for i in range(rng.randint(1, 6))]
            is_write = False
        elif kind == 2:
            lines = sorted(
                {rng.randrange(0, 1 << 12) for _ in range(rng.randint(1, 24))}
            )
            is_write = False
        else:
            lines = sorted({rng.randrange(0, 1 << 12) for _ in range(rng.randint(1, 8))})
            is_write = True
        spans.append((array("q", lines), is_write))
    return spans


def check_accessor_against_reference(seed, l2_partitions, *, mshr_limit=None, lines_per_cycle=None):
    """Drive the per-SMX accessor and the ``_access_lines`` reference
    with the same random spans; every completion time and every piece of
    cache, DRAM and MSHR state must agree."""
    rng = random.Random(seed)
    config = GPUConfig(
        num_smx=4,
        l1=CacheConfig(size_bytes=4 * 1024, associativity=4),
        l2=CacheConfig(size_bytes=32 * 1024, associativity=8),
        l2_partitions=l2_partitions,
    )
    if lines_per_cycle is not None:
        config = config.with_overrides(dram_lines_per_cycle=lines_per_cycle)
    fast_hier, ref_hier = MemoryHierarchy(config), MemoryHierarchy(config)
    if mshr_limit is not None:
        fast_hier.mshr_limit = ref_hier.mshr_limit = mshr_limit
    access = fast_hier.accessor(0)
    now = 0
    for lines, is_write in _random_spans(rng, fast_hier.l1s[0].num_sets):
        fast = access(lines, 0, len(lines), now, is_write)
        ref = ref_hier._access_lines(0, list(lines), now, is_write, False)
        assert fast == ref.complete_at, f"completion diverged at t={now} lines={lines.tolist()}"
        now += rng.randint(0, 40)
    pairs = [(fast_hier.l1s[0], ref_hier.l1s[0])]
    pairs += list(zip(fast_hier.l2_parts, ref_hier.l2_parts))
    for fast_cache, ref_cache in pairs:
        assert fast_cache.stats == ref_cache.stats, fast_cache.name
        assert fast_cache.resident_lines() == ref_cache.resident_lines(), fast_cache.name
    for fast_dram, ref_dram in zip(fast_hier.drams, ref_hier.drams):
        assert fast_dram.stats == ref_dram.stats
        assert fast_dram._bus_free == ref_dram._bus_free
    assert fast_hier.mshr_merges == ref_hier.mshr_merges
    assert fast_hier.mshr_dropped == ref_hier.mshr_dropped
    assert fast_hier._inflight == ref_hier._inflight
    assert fast_hier.dram_transactions() == ref_hier.dram_transactions()
    return fast_hier


@pytest.mark.parametrize("l2_partitions", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_accessor_matches_reference_walk(seed, l2_partitions):
    check_accessor_against_reference(seed, l2_partitions)


@pytest.mark.parametrize("lines_per_cycle", [0.5, 3.0])
@pytest.mark.parametrize("l2_partitions", [1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_accessor_matches_reference_walk_with_full_mshr(seed, l2_partitions, lines_per_cycle):
    """An 8-entry MSHR table makes the walk capacity-evict fills, and a
    fractional DRAM rate exercises the float bus-free arithmetic."""
    hier = check_accessor_against_reference(
        seed, l2_partitions, mshr_limit=8, lines_per_cycle=lines_per_cycle
    )
    assert hier.mshr_dropped > 0
    assert max(d.stats.max_queue_delay for d in hier.drams) > 0
